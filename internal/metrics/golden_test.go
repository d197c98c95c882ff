package metrics

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/writeprom.golden from current output")

// TestWritePromGolden locks the full text exposition format — HELP/TYPE
// preambles, cumulative _bucket ladders (unscaled and seconds-scaled),
// quantile lines, sums, counts, label merging — against a golden file.
// Any intentional format change must regenerate the golden with
// `go test ./internal/metrics -run WritePromGolden -update` and be
// reviewed as a scrape-compatibility change.
func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("demo_requests_total", "requests admitted").Add(7)
	r.Gauge("demo_inflight", "requests in flight").Add(3)

	bh := NewHistogram()
	for _, v := range []int64{1, 2, 5, 7} {
		bh.Record(v)
	}
	r.RegisterHistogram("demo_batch_size", "entries per batch", bh)

	lh := r.HistogramScaled("demo_sojourn_seconds", "stage sojourn", 1e-9, Label{"stage", "queue"})
	lh.Record(1000)
	lh.Record(3000)

	var sb strings.Builder
	r.WriteProm(&sb)
	got := sb.String()

	const path = "testdata/writeprom.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("exposition diverges from golden at line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
		t.Fatal("exposition diverges from golden (length only?)")
	}
}

func TestCumulativeCounts(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{1, 63, 64, 1000, 1_000_000} {
		h.Record(v)
	}
	bounds := []int64{1, 50, 100, 10_000, 10_000_000}
	got := h.CumulativeCounts(bounds)
	// 1000 sits in a log-bucket spanning [1000,1007], attributed past the
	// 10_000 bound's predecessors but within 10_000; 64's bucket is exact.
	want := []int64{1, 1, 3, 4, 5}
	for i := range bounds {
		if got[i] != want[i] {
			t.Fatalf("CumulativeCounts(%v) = %v, want %v", bounds, got, want)
		}
	}
	if empty := NewHistogram().CumulativeCounts(bounds); empty[len(empty)-1] != 0 {
		t.Fatalf("empty histogram cumulative counts = %v", empty)
	}
}

func TestScaleConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.HistogramScaled("s_seconds", "s", 1e-9)
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting scale did not panic")
		}
	}()
	r.HistogramScaled("s_seconds", "s", 1e-6)
}
