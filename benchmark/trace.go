package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// drainEvery is how many checks a loader makes between drains of the edge
// recorder's 256-slot ring: 3 goroutines × 32 checks stays well inside it.
const drainEvery = 32

// clientSpan is the benchmark's own span around one Check, wall-clock ns.
type clientSpan struct{ start, end int64 }

// span is one hop of one request in the dump and the waterfall. Spans of one
// request share Trace; Parent names the span that caused this one.
type span struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// collector copies completed traces out of the edge tier's recorder (the LB
// in gateway mode, the router in DNS mode) before its ring overwrites them.
type collector struct {
	rec *trace.Recorder

	mu     sync.Mutex
	last   map[*trace.Trace]bool
	traces []*trace.Trace
}

func newCollector(rec *trace.Recorder) *collector {
	c := &collector{rec: rec}
	c.drain() // whatever the ring already holds predates the traced windows
	c.traces = nil
	return c
}

func (c *collector) drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	recent := c.rec.Recent() // newest first
	seen := make(map[*trace.Trace]bool, len(recent))
	for i := len(recent) - 1; i >= 0; i-- {
		t := recent[i]
		seen[t] = true
		if !c.last[t] && len(t.Spans) > 0 {
			c.traces = append(c.traces, t)
		}
	}
	c.last = seen
}

// join attaches each product trace to the client span that encloses its root
// span in time. The client library cannot carry a trace ID, so containment
// is the only link until spans are recorded inside the program; with two
// closed-loop clients a root can sit inside both clients' open spans, and
// the earliest unclaimed one wins (requests are served in send order on one
// P). It returns the spans of every joined request and the share of client
// spans that found their trace.
func join(clients [][]clientSpan, traces []*trace.Trace) ([]span, float64) {
	roots := slices.Clone(traces)
	sort.SliceStable(roots, func(i, j int) bool { return roots[i].Spans[0].Start < roots[j].Spans[0].Start })
	claimed := make([][]bool, len(clients))
	total := 0
	for i, cs := range clients {
		claimed[i] = make([]bool, len(cs))
		total += len(cs)
	}
	var out []span
	joined := 0
	for _, t := range roots {
		rs, re := t.Spans[0].Start, t.Spans[0].Start+t.Spans[0].Dur
		bestC, bestI := -1, -1
		for ci, cs := range clients {
			// Last client span starting at or before the root.
			i := sort.Search(len(cs), func(i int) bool { return cs[i].start > rs }) - 1
			if i < 0 || claimed[ci][i] || cs[i].end < re {
				continue
			}
			if bestC < 0 || cs[i].start < clients[bestC][bestI].start {
				bestC, bestI = ci, i
			}
		}
		if bestC < 0 {
			continue
		}
		claimed[bestC][bestI] = true
		joined++
		id := trace.FormatID(uint64(t.ID))
		cs := clients[bestC][bestI]
		out = append(out, span{Trace: id, Name: "client", Start: cs.start, End: cs.end})
		parent := "client"
		for _, s := range t.Spans {
			out = append(out, span{Trace: id, Name: s.Hop, Parent: parent, Start: s.Start, End: s.Start + s.Dur})
			parent = s.Hop
		}
	}
	if total == 0 {
		return out, 0
	}
	return out, float64(joined) / float64(total)
}

// selfTimes returns, per span name, each span's self time in ns: its
// duration minus the part of its interval that its child spans cover.
// Overlapping children are counted once and children are clipped to the
// parent's interval.
func selfTimes(spans []span) map[string][]float64 {
	byTrace := map[string][]span{}
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	out := map[string][]float64{}
	for _, ts := range byTrace {
		for _, p := range ts {
			var kids []span
			for _, k := range ts {
				if k.Parent == p.Name {
					kids = append(kids, k)
				}
			}
			sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
			covered, edge := int64(0), p.Start
			for _, k := range kids {
				lo, hi := max(k.Start, edge), min(k.End, p.End)
				if hi > lo {
					covered += hi - lo
					edge = hi
				}
			}
			out[p.Name] = append(out[p.Name], float64(p.End-p.Start-covered))
		}
	}
	return out
}

// durations returns the duration in ns of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// medianOr0 is median for hops a workload does not have (lb on dns-*).
func medianOr0(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return median(vs)
}

// waterfall writes the traced run's ledger. k is the calibration scale of
// the traced windows; e2eP50 the median of every client span in them, ns.
//
// Self times come from the span tree client -> [lb ->] router -> qosserver
// (the product's qosserver span is the decision alone). The janusd sojourn
// histogram then splits the router's self time into what was spent inside
// janusd around the decision and what was spent on the wire, i.e. encode,
// four UDP syscalls and two goroutine wake-ups.
func waterfall(values map[string]float64, spans []span, joined, k, e2eP50 float64, sojourn *metrics.Histogram) {
	self := selfTimes(spans)
	us := func(ns float64) float64 { return ns / 1e3 * k }
	sum := 0.0
	for _, hop := range []string{"client", "lb", "router", "qosserver"} {
		sum += medianOr0(self[hop])
	}
	values["client.self_us"] = us(medianOr0(self["client"]))
	values["lb.self_us"] = us(medianOr0(self["lb"]))
	values["router.self_us"] = us(medianOr0(self["router"]))
	values["qosserver.decide_us"] = us(medianOr0(self["qosserver"]))
	soj := float64(sojourn.Quantile(0.5))
	values["qosserver.sojourn_us"] = us(soj)
	values["transport.wire_us"] = us(medianOr0(durations(spans, "router")) - soj)
	values["trace.joined_frac"] = joined
	gap := sum - e2eP50
	if gap < 0 {
		gap = -gap
	}
	values["closure.gap_frac"] = gap / e2eP50
}

// writeSpans dumps the span buffer as one JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("trace dump %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace dump %s: %w", path, err)
	}
	return nil
}
