//go:build race

package minisql

// raceEnabled reports whether the race detector instrumented this build.
const raceEnabled = true
