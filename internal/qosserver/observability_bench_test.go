package qosserver

import (
	"testing"

	"repro/internal/bucket"
)

// BenchmarkObservabilitySojournObserve isolates the per-request cost of the
// sojourn decomposition itself — four histogram records plus the current-
// sojourn gauge store, the price every decided packet pays (DESIGN.md §6).
// Run with `go test -run '^$' -bench SojournObserve ./internal/qosserver`.
func BenchmarkObservabilitySojournObserve(b *testing.B) {
	s, err := New(Config{
		Addr:        "127.0.0.1:0",
		DefaultRule: bucket.Rule{RefillRate: 1e12, Capacity: 1e12, Credit: 1e12},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recv := int64(i) * 4000
		s.observeSojourn(recv, recv+1000, recv+2500, recv+4000)
	}
}
