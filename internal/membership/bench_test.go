package membership

import (
	"fmt"
	"strings"
	"testing"
)

// BenchmarkPick measures the per-request cost of the key→backend mapping at
// typical QoS-tier widths. The pick sits on the router's hot path, once per
// admission request.
func BenchmarkPick(b *testing.B) {
	ks := keys(1024)
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Pick(ks[i%len(ks)], n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaleEventKeysMoved reports, as a metric rather than a timing,
// how many of 100k keys change owner when the tier grows n→n+1 — the cost a
// scale event actually imposes on the handoff protocol.
func BenchmarkScaleEventKeysMoved(b *testing.B) {
	ks := keys(100000)
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			moved := 0
			for _, k := range ks {
				i, _ := Pick(k, n)
				j, _ := Pick(k, n+1)
				if i != j {
					moved++
				}
			}
			b.ReportMetric(float64(moved)/float64(len(ks)), "moved-frac")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// TestPickAllocPin pins Pick at zero allocations for a short and a long key:
// the router picks once per admission request.
func TestPickAllocPin(t *testing.T) {
	for _, key := range []string{"user-1234", strings.Repeat("k", 200)} {
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := Pick(key, 5); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("Pick(%d-byte key) allocates %v objects per call, want 0", len(key), allocs)
		}
	}
}
