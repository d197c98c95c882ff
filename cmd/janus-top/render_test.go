package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/promtext"
)

func mustParse(t *testing.T, expo string) promtext.Metrics {
	t.Helper()
	m, err := promtext.Parse(strings.NewReader(expo))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

// TestRenderFrame drives the pure frame renderer with two synthetic polls
// of a three-tier cluster and asserts every console section shows up with
// the right arithmetic: counter deltas → rates, audit verdicts, and the
// epoch-skew "behind" marker.
func TestRenderFrame(t *testing.T) {
	qos0 := mustParse(t, `
janus_qos_received_total 1000
janus_qos_decisions_total 1000
`)
	qos1 := mustParse(t, `
janus_qos_received_total 2000
janus_qos_decisions_total 2000
janus_qos_sojourn_seconds{stage="total",quantile="0.5"} 0.00005
janus_qos_sojourn_seconds{stage="total",quantile="0.99"} 0.002
janus_qos_sojourn_seconds{stage="queue",quantile="0.99"} 0.0015
janus_qos_sojourn_seconds{stage="decide",quantile="0.99"} 0.0004
janus_qos_sojourn_seconds{stage="send",quantile="0.99"} 0.0001
`)
	rt0 := mustParse(t, `
janus_router_requests_total 500
janus_router_view_epoch 4
`)
	rt1 := mustParse(t, `
janus_router_requests_total 1000
janus_router_view_epoch 4
`)
	coord := mustParse(t, `
janus_coordinator_epoch 5
janus_coordinator_members 2
`)

	prev := map[string]nodeView{
		"q:1": {Target: "q:1", Tier: "qos", M: qos0},
		"r:1": {Target: "r:1", Tier: "router", M: rt0},
	}
	cur := []nodeView{
		{Target: "r:1", Tier: "router", M: rt1},
		{Target: "q:1", Tier: "qos", M: qos1,
			Audit: &audit.Report{Verdict: "overspend", Buckets: 7, Admitted: 2000,
				Overspent: []audit.Overspend{{Key: "tenant-9", Over: 12.5}}}},
		{Target: "c:1", Tier: "coordinator", M: coord},
		{Target: "dead:1", Tier: "?", Err: "connection refused"},
	}

	out := render(cur, prev, 10*time.Second, 30)

	for _, want := range []string{
		"lb=0",              // absent tiers are not listed
		"router=1", "qos=1", // header tier counts
		"qos q:1",           // throughput bar label
		"100",               // 1000 decisions / 10 s
		"50µs",              // sojourn p50
		"2.0ms",             // sojourn p99
		"1.5ms/400µs/100µs", // stage p99 breakdown
		"overspend",         // audit verdict
		"tenant-9(+12.5)",
		"skew 1", // coordinator at 5, router at 4
		"epoch 4  ← behind",
		"scrape error: dead:1: connection refused",
	} {
		if want == "lb=0" {
			if strings.Contains(out, "lb=") {
				t.Errorf("header lists absent lb tier\n%s", out)
			}
			continue
		}
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q\n%s", want, out)
		}
	}
}

// TestRenderFirstPoll asserts the first frame (no previous poll, so no
// rates) still renders without sections that need deltas.
func TestRenderFirstPoll(t *testing.T) {
	cur := []nodeView{{Target: "q:1", Tier: "qos", M: mustParse(t, `
janus_qos_received_total 10
janus_qos_decisions_total 10
`)}}
	out := render(cur, map[string]nodeView{}, 0, 30)
	if !strings.Contains(out, "1 node(s)") {
		t.Errorf("header missing\n%s", out)
	}
	if strings.Contains(out, "throughput") {
		t.Errorf("throughput rendered without a previous poll\n%s", out)
	}
}
