//go:build !race

package lb

// raceEnabled reports whether the race detector instrumented this build.
const raceEnabled = false
