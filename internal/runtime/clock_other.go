//go:build !(linux && (amd64 || arm64))

package runtime

// newWakeTimer: no kernel timer is wired up on this platform, so the
// clock waits on Go timers alone.
func newWakeTimer() (*wakeups, func()) { return nil, func() {} }
