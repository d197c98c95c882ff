package promtext

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

func TestParseBasic(t *testing.T) {
	in := `# HELP janus_qos_received_total datagrams received
# TYPE janus_qos_received_total counter
janus_qos_received_total 1234
janus_qos_sojourn_seconds{stage="total",quantile="0.5"} 5e-05
janus_qos_sojourn_seconds_bucket{stage="total",le="+Inf"} 17
janus_qos_sojourn_seconds_count{stage="total"} 17
janus_build_info{go="go1.22.0",version="dev"} 1
weird{msg="a\"b\\c\nd"} 2

garbage line without a value
`
	m, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v, ok := m.Value("janus_qos_received_total"); !ok || v != 1234 {
		t.Errorf("received_total = %v, %v; want 1234, true", v, ok)
	}
	if v, ok := m.Value("janus_qos_sojourn_seconds",
		Label{"stage", "total"}, Label{"quantile", "0.5"}); !ok || v != 5e-05 {
		t.Errorf("sojourn p50 = %v, %v; want 5e-05, true", v, ok)
	}
	if v, ok := m.Value("janus_qos_sojourn_seconds_bucket",
		Label{"le", "+Inf"}); !ok || v != 17 {
		t.Errorf("+Inf bucket = %v, %v; want 17, true", v, ok)
	}
	if _, ok := m.Value("janus_build_info", Label{"version", "dev"}); !ok {
		t.Errorf("build_info{version=dev} not found")
	}
	if !m.Has("janus_qos_received_total") || m.Has("janus_router_requests_total") {
		t.Errorf("Has misreports scraped families")
	}
	if v, ok := m.Value("weird", Label{"msg", "a\"b\\c\nd"}); !ok || v != 2 {
		t.Errorf("escaped label value not decoded: %v, %v", v, ok)
	}
	if got := len(m.byName["janus_qos_sojourn_seconds"]); got != 1 {
		t.Errorf("janus_qos_sojourn_seconds: %d samples, want 1", got)
	}
}

// TestParseRoundTrip feeds a real registry exposition through the parser —
// the consumer co-evolves with the producer, so a format change in
// metrics.WriteProm that promtext cannot read fails here, not in janus-top
// against a live cluster.
func TestParseRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("janus_test_total", "help").Add(41)
	reg.Gauge("janus_test_depth", "help").Set(7)
	h := reg.HistogramScaled("janus_test_latency_ns", "help", 1e-9, metrics.Label{Key: "stage", Value: "queue"})
	for i := 1; i <= 100; i++ {
		h.Record(int64(i) * 1000)
	}
	var sb strings.Builder
	reg.WriteProm(&sb)

	m, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v, ok := m.Value("janus_test_total"); !ok || v != 41 {
		t.Errorf("counter = %v, %v; want 41, true", v, ok)
	}
	if v, ok := m.Value("janus_test_depth"); !ok || v != 7 {
		t.Errorf("gauge = %v, %v; want 7, true", v, ok)
	}
	if v, ok := m.Value("janus_test_latency_ns_count", Label{"stage", "queue"}); !ok || v != 100 {
		t.Errorf("histogram count = %v, %v; want 100, true", v, ok)
	}
	if v, ok := m.Value("janus_test_latency_ns_bucket", Label{"stage", "queue"}, Label{"le", "+Inf"}); !ok || v != 100 {
		t.Errorf("+Inf bucket = %v, %v; want 100, true", v, ok)
	}
	p50, ok := m.Value("janus_test_latency_ns", Label{"stage", "queue"}, Label{"quantile", "0.5"})
	if !ok || p50 <= 0 {
		t.Errorf("p50 = %v, %v; want > 0, true", p50, ok)
	}
}
