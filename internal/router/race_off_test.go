//go:build !race

package router

// raceEnabled reports whether the race detector instrumented this build.
// The alloc pins skip under -race: instrumentation allocates, and a
// sync.Pool drops a share of what is put back.
const raceEnabled = false
