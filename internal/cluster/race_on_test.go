//go:build race

package cluster

// raceEnabled reports whether the race detector instrumented this build.
const raceEnabled = true
