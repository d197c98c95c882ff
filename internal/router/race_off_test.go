//go:build !race

package router

// raceEnabled reports whether the race detector instrumented this build.
// The alloc pins skip under -race: instrumentation allocates.
const raceEnabled = false
