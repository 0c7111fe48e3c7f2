//go:build race

package runtime

// raceEnabled reports whether the race detector is on: its
// instrumentation allocates (and sync.Pool deliberately drops puts
// under race), so allocation pins skip themselves.
const raceEnabled = true
