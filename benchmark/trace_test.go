package main

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// TestSelfTimes checks span-minus-children on a hand-built tree: children
// that overlap each other count once, a child that overruns its parent is
// clipped, and a second trace is kept apart.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Trace: "a", Name: "client", Start: 0, End: 100},
		{Trace: "a", Name: "lb", Parent: "client", Start: 10, End: 90},
		{Trace: "a", Name: "router", Parent: "lb", Start: 20, End: 60},
		{Trace: "a", Name: "router", Parent: "lb", Start: 50, End: 95}, // overlaps its sibling, overruns lb
		{Trace: "a", Name: "qosserver", Parent: "router", Start: 20, End: 23},
		{Trace: "b", Name: "client", Start: 1000, End: 1040},
		{Trace: "b", Name: "router", Parent: "client", Start: 1005, End: 1030},
	}
	got := selfTimes(spans)
	want := map[string][]float64{
		"client":    {20, 15},     // 100-80; 40-25
		"lb":        {10},         // 80 minus [20,90) covered
		"router":    {37, 45, 25}, // 40-3; the second router's interval holds no qosserver time; trace b
		"qosserver": {3},
	}
	for name, w := range want {
		g := append([]float64(nil), got[name]...)
		if len(g) != len(w) {
			t.Errorf("%s: self times %v, want %v", name, g, w)
			continue
		}
		// Traces come out of a map, so compare as multisets.
		for _, x := range w {
			found := false
			for i, y := range g {
				if x == y {
					g = append(g[:i], g[i+1:]...)
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: self times %v lack %v (want %v)", name, got[name], x, w)
			}
		}
	}
}

// TestJoin checks the containment join: each product trace goes to the
// client span that encloses its root, the earlier-started span wins a tie,
// and a root no span encloses stays unjoined.
func TestJoin(t *testing.T) {
	clients := [][]clientSpan{
		{{0, 100}, {110, 200}},
		{{30, 150}},
	}
	traces := []*trace.Trace{
		{ID: 1, Spans: []trace.Span{{Hop: "router", Start: 10, Dur: 50}, {Hop: "qosserver", Start: 10, Dur: 2}}},
		{ID: 2, Spans: []trace.Span{{Hop: "router", Start: 40, Dur: 50}}},  // inside both open spans; client 0's is claimed
		{ID: 3, Spans: []trace.Span{{Hop: "router", Start: 120, Dur: 50}}}, // only client 0's second span holds it
		{ID: 4, Spans: []trace.Span{{Hop: "router", Start: 190, Dur: 50}}}, // outlives every span
	}
	spans, joined := join(clients, traces)
	if joined != 1 {
		t.Errorf("joined %v of the client spans, want all 3", joined)
	}
	parentOf := map[string]span{}
	for _, s := range spans {
		if s.Name == "client" {
			parentOf[s.Trace] = s
		}
	}
	for id, want := range map[uint64]clientSpan{1: {0, 100}, 2: {30, 150}, 3: {110, 200}} {
		got, ok := parentOf[trace.FormatID(id)]
		if !ok || got.Start != want.start || got.End != want.end {
			t.Errorf("trace %d joined to %+v (found %v), want %+v", id, got, ok, want)
		}
	}
	if _, ok := parentOf[trace.FormatID(4)]; ok {
		t.Error("trace 4 was joined although no client span encloses it")
	}
	for _, s := range spans {
		if s.Name == "qosserver" && (s.Parent != "router" || s.Trace != trace.FormatID(1)) {
			t.Errorf("qosserver span %+v", s)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the driver's spread definition, and checks the midmean over windows.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{12, 15, 11, 19, 14, 13, 18, 16, 17, 10}
	q1, q3 := quartiles(v) // python: [11.75, 14.5, 17.25]
	if math.Abs(q1-11.75) > 1e-12 || math.Abs(q3-17.25) > 1e-12 {
		t.Errorf("quartiles %v %v, want 11.75 17.25", q1, q3)
	}
	if got := spread(v); math.Abs(got-5.5/14.5) > 1e-12 {
		t.Errorf("spread %v, want %v", got, 5.5/14.5)
	}
	// The midmean drops the lowest and highest quarter: 10, 11 and 18, 19 here.
	if got := midmean(v); got != 14.5 {
		t.Errorf("midmean %v, want 14.5", got)
	}
	if got := midmean([]float64{5, 1000, 6, 7, -50}); got != 6 {
		t.Errorf("midmean with outliers %v, want 6", got)
	}
}
