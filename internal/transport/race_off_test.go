//go:build !race

package transport

// raceEnabled reports whether the race detector instrumented this build.
// The alloc pin skips under -race: instrumentation allocates.
const raceEnabled = false
