package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestFormatParseID(t *testing.T) {
	cases := []uint64{1, 0xdeadbeef, math.MaxUint64}
	for _, id := range cases {
		s := FormatID(id)
		if len(s) != 16 {
			t.Fatalf("FormatID(%d) = %q, want 16 hex digits", id, s)
		}
		got, err := ParseID(s)
		if err != nil || got != id {
			t.Fatalf("ParseID(%q) = %d, %v, want %d", s, got, err, id)
		}
	}
	if id, err := ParseID(""); err != nil || id != 0 {
		t.Fatalf("ParseID(\"\") = %d, %v, want 0, nil", id, err)
	}
	if _, err := ParseID("not-hex"); err == nil {
		t.Fatal("ParseID(\"not-hex\") succeeded, want error")
	}
}

func TestHexIDJSON(t *testing.T) {
	tr := Trace{ID: HexID(0xabc), Spans: []Span{{Hop: "lb", Dur: 5}}}
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != tr.ID {
		t.Fatalf("round-tripped ID %x, want %x", back.ID, tr.ID)
	}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	spans := []Span{
		{Hop: "router", Note: "backend=x retries=1", Start: 100, Dur: 2000},
		{Hop: "qosserver", Note: "status=ok", Start: 150, Dur: 800},
	}
	hdr := EncodeSpans(spans)
	got, err := DecodeSpans(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != spans[0] || got[1] != spans[1] {
		t.Fatalf("round trip = %+v, want %+v", got, spans)
	}
	if got, err := DecodeSpans(""); err != nil || got != nil {
		t.Fatalf("DecodeSpans(\"\") = %v, %v, want nil, nil", got, err)
	}
	if _, err := DecodeSpans("{not json"); err == nil {
		t.Fatal("DecodeSpans of garbage succeeded, want error")
	}
}

func TestSamplerDisabled(t *testing.T) {
	s := newSampler(0)
	for i := 0; i < 1000; i++ {
		if id, ok := s.Sample(); ok || id != 0 {
			t.Fatalf("disabled sampler returned (%d, %v)", id, ok)
		}
	}
}

func TestSamplerAlways(t *testing.T) {
	s := newSampler(1)
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id, ok := s.Sample()
		if !ok || id == 0 {
			t.Fatalf("rate-1 sampler returned (%d, %v)", id, ok)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %x", id)
		}
		seen[id] = true
	}
}

func TestSamplerFraction(t *testing.T) {
	s := newSampler(0.1)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if _, ok := s.Sample(); ok {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.05 || frac > 0.15 {
		t.Fatalf("rate-0.1 sampler hit %.3f of %d draws", frac, n)
	}
}

func TestSamplerSetRate(t *testing.T) {
	s := newSampler(0)
	if r := s.Rate(); r != 0 {
		t.Fatalf("Rate() = %v, want 0", r)
	}
	s.SetRate(1)
	if r := s.Rate(); r != 1 {
		t.Fatalf("Rate() = %v, want 1", r)
	}
	s.SetRate(0.5)
	if r := s.Rate(); r < 0.49 || r > 0.51 {
		t.Fatalf("Rate() = %v, want ~0.5", r)
	}
	s.SetRate(math.NaN())
	if r := s.Rate(); r != 0 {
		t.Fatalf("Rate() after NaN = %v, want 0", r)
	}
}

func TestRingEvictionOrder(t *testing.T) {
	r := NewRing(16)
	for i := 1; i <= 40; i++ {
		r.Put(&Trace{ID: HexID(i), Spans: []Span{{Hop: "x"}}})
	}
	got := r.Snapshot()
	if len(got) != 16 {
		t.Fatalf("snapshot holds %d traces, want 16", len(got))
	}
	for i, tr := range got {
		want := HexID(40 - i) // newest first
		if tr.ID != want {
			t.Fatalf("snapshot[%d].ID = %d, want %d", i, tr.ID, want)
		}
	}
}

func TestRingPartial(t *testing.T) {
	r := NewRing(16)
	r.Put(&Trace{ID: 1})
	r.Put(&Trace{ID: 2})
	got := r.Snapshot()
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 1 {
		t.Fatalf("snapshot = %v", got)
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Put(&Trace{ID: HexID(g*1000 + i)})
				r.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if n := len(r.Snapshot()); n != 64 {
		t.Fatalf("snapshot holds %d, want 64", n)
	}
}

func TestTopKKeepsSlowest(t *testing.T) {
	tk := newTopK(4)
	for d := int64(1); d <= 100; d++ {
		tk.offer(&Trace{ID: HexID(d), Dur: d})
	}
	got := tk.snapshot()
	if len(got) != 4 {
		t.Fatalf("capture holds %d, want 4", len(got))
	}
	for i, want := range []int64{100, 99, 98, 97} {
		if got[i].Dur != want {
			t.Fatalf("slowest[%d].Dur = %d, want %d", i, got[i].Dur, want)
		}
	}
	// Fast traces below the floor must be rejected without disturbing it.
	tk.offer(&Trace{ID: 1, Dur: 5})
	if got := tk.snapshot(); got[3].Dur != 97 {
		t.Fatalf("floor trace replaced by a faster one: %v", got)
	}
}

func TestRecorderDump(t *testing.T) {
	r := NewRecorder(Config{Rate: 1, RingSize: 16, TopK: 4})
	r.Record(nil)                  // dropped
	r.Record(&Trace{ID: HexID(9)}) // dropped: no spans
	for i := 1; i <= 5; i++ {
		r.Record(&Trace{ID: HexID(i), Spans: []Span{{Hop: "lb", Dur: int64(i * 100)}}})
	}
	if got := r.Recorded(); got != 5 {
		t.Fatalf("Recorded() = %d, want 5", got)
	}
	d := r.Dump("test-svc")
	if d.Service != "test-svc" || d.Rate != 1 || d.Recorded != 5 {
		t.Fatalf("dump header = %+v", d)
	}
	if len(d.Recent) != 5 || d.Recent[0].ID != 5 {
		t.Fatalf("recent = %+v", d.Recent)
	}
	if len(d.Slowest) != 4 || d.Slowest[0].Dur != 500 {
		t.Fatalf("slowest = %+v", d.Slowest)
	}
	// Dur derived from the longest span.
	if d.Recent[0].Dur != 500 {
		t.Fatalf("derived Dur = %d, want 500", d.Recent[0].Dur)
	}
}

func TestSplitmix64Bijective(t *testing.T) {
	seen := make(map[uint64]bool, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		v := splitmix64(i)
		if seen[v] {
			t.Fatalf("splitmix64 collision at %d", i)
		}
		seen[v] = true
	}
}

func BenchmarkSamplerDisabled(b *testing.B) {
	s := newSampler(0)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok := s.Sample(); ok {
				b.Fatal("disabled sampler sampled")
			}
		}
	})
}

func BenchmarkSamplerRates(b *testing.B) {
	for _, rate := range []float64{0.01, 1} {
		b.Run(fmt.Sprintf("rate=%v", rate), func(b *testing.B) {
			s := newSampler(rate)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					s.Sample()
				}
			})
		})
	}
}

func BenchmarkRingPut(b *testing.B) {
	r := NewRing(256)
	tr := &Trace{ID: 1, Dur: 100, Spans: []Span{{Hop: "lb", Dur: 100}}}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Put(tr)
		}
	})
}

func BenchmarkRecorderRecord(b *testing.B) {
	r := NewRecorder(Config{RingSize: 256, TopK: 16})
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			i++
			r.Record(&Trace{ID: HexID(i), Spans: []Span{{Hop: "lb", Dur: i & 1023}}})
		}
	})
}
