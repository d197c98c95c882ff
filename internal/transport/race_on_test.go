//go:build race

package transport

// raceEnabled reports whether the race detector instrumented this build.
const raceEnabled = true
