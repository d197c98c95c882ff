//go:build race

package router

// raceEnabled reports whether the race detector instrumented this build.
const raceEnabled = true
