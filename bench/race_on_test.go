//go:build race

package main

// raceEnabled mirrors the race build tag: the smoke tests run fewer
// subprocesses under the detector's slowdown.
const raceEnabled = true
