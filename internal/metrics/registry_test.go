package metrics

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRegistryCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests seen")
	c.Inc()
	c.Inc()
	g := r.Gauge("inflight", "requests in flight")
	g.Add(3)
	g.Add(-1)

	var b strings.Builder
	r.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP requests_total requests seen",
		"# TYPE requests_total counter",
		"requests_total 2",
		"# TYPE inflight gauge",
		"inflight 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryIdempotentHandles(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "x")
	c2 := r.Counter("x_total", "x")
	if c1 != c2 {
		t.Fatal("same name returned distinct counters")
	}
	c1.Inc()
	if c2.Value() != 1 {
		t.Fatal("handles do not share state")
	}
}

func TestRegistryLabels(t *testing.T) {
	r := NewRegistry()
	// Registration order of labels must not matter.
	a := r.Counter("served_total", "served", Label{"backend", "b1"}, Label{"zone", "z"})
	b := r.Counter("served_total", "served", Label{"zone", "z"}, Label{"backend", "b1"})
	if a != b {
		t.Fatal("label order produced distinct series")
	}
	a.Inc()
	r.Counter("served_total", "served", Label{"backend", "b2"}, Label{"zone", "z"}).Add(5)

	var sb strings.Builder
	r.WriteProm(&sb)
	out := sb.String()
	if !strings.Contains(out, `served_total{backend="b1",zone="z"} 1`) {
		t.Fatalf("missing labelled series b1:\n%s", out)
	}
	if !strings.Contains(out, `served_total{backend="b2",zone="z"} 5`) {
		t.Fatalf("missing labelled series b2:\n%s", out)
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird_total", "w", Label{"k", "a\"b\\c\nd"}).Inc()
	var sb strings.Builder
	r.WriteProm(&sb)
	if !strings.Contains(sb.String(), `weird_total{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", sb.String())
	}
}

func TestRegistryGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 0.0
	r.GaugeFunc("epoch", "view epoch", func() float64 { return v })
	v = 7
	var sb strings.Builder
	r.WriteProm(&sb)
	if !strings.Contains(sb.String(), "epoch 7") {
		t.Fatalf("gauge func not evaluated at exposition:\n%s", sb.String())
	}
}

func TestRegistryHistogramSummary(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(int64(i) * 1000)
	}
	r.RegisterHistogram("latency_ns", "latency", h)
	var sb strings.Builder
	r.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE latency_ns histogram",
		`latency_ns{quantile="0.5"}`,
		`latency_ns{quantile="0.99"}`,
		`latency_ns_bucket{le="200000"} 100`,
		`latency_ns_bucket{le="+Inf"} 100`,
		"latency_ns_sum ",
		"latency_ns_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("histogram exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryHistogramLabelledQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "lat", Label{"backend", "b1"})
	h.Record(10)
	var sb strings.Builder
	r.WriteProm(&sb)
	out := sb.String()
	if !strings.Contains(out, `lat_ns{backend="b1",quantile="0.5"}`) {
		t.Fatalf("labelled quantile wrong:\n%s", out)
	}
	if !strings.Contains(out, `lat_ns_count{backend="b1"} 1`) {
		t.Fatalf("labelled count wrong:\n%s", out)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("thing", "t")
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("thing", "t")
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Fatalf("body:\n%s", rec.Body.String())
	}
}
