//go:build race

package store

// raceEnabled reports whether the race detector instrumented this build.
const raceEnabled = true
