package repro

// Process-level integration of the observability layer: boot the four-tier
// stack with -metrics-addr on every daemon and -trace-sample 1 at the edge,
// drive admitted and denied requests through it, then read the results back
// out of /metrics, /debug/traces, and /debug/qos.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/events"
	"repro/internal/minisql"
	"repro/internal/proctest"
	"repro/internal/store"
	"repro/internal/trace"
)

// httpGet fetches a URL body with a retry window (daemons are separate
// processes that may still be binding their debug listener).
func httpGet(t *testing.T, url string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return string(body)
			}
			err = fmt.Errorf("HTTP %d (%v)", resp.StatusCode, rerr)
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s never succeeded: %v", url, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// promValue extracts the value of an exactly-named series from a Prometheus
// text exposition.
func promValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` ([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(exposition)
	if m == nil {
		t.Fatalf("series %q not found in exposition:\n%s", series, exposition)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %q value %q: %v", series, m[1], err)
	}
	return v
}

func TestObservabilityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-level integration in -short mode")
	}
	bins := buildBinaries(t, "janus-dbd", "janusd", "janus-router", "janus-lb", "janus-coordinator")

	dbAddr := proctest.Start(t, bins["janus-dbd"], "-addr", proctest.AnyPort).Addr(t, "master")
	coord := proctest.Start(t, bins["janus-coordinator"], "-addr", proctest.AnyPort, "-metrics-addr", proctest.AnyPort)
	coordAddr, coordMetrics := coord.Addr(t, "membership coordinator"), coord.Addr(t, "metrics/debug")

	pool := minisql.NewPool(dbAddr, 2)
	defer pool.Close()
	st := store.New(pool)
	if err := st.Init(); err != nil {
		t.Fatal(err)
	}
	if err := st.PutAll([]bucket.Rule{
		{Key: "carol", RefillRate: 0, Capacity: 3, Credit: 3},
	}); err != nil {
		t.Fatal(err)
	}

	// The QoS server joins through the coordinator and the router follows
	// its view, so the run exercises the membership control plane and the
	// router's flight recorder sees a real epoch swap.
	qosMetrics := proctest.Start(t, bins["janusd"], "-addr", proctest.AnyPort, "-db", dbAddr,
		"-sync", "0", "-checkpoint", "0", "-metrics-addr", proctest.AnyPort,
		"-coordinator", coordAddr).Addr(t, "metrics/debug")
	router := proctest.Start(t, bins["janus-router"], "-addr", proctest.AnyPort, "-coordinator", coordAddr,
		"-poll", "100ms", "-timeout", "50ms", "-retries", "5", "-metrics-addr", proctest.AnyPort)
	routerAddr, routerMetrics := router.Addr(t, "request router"), router.Addr(t, "metrics/debug")
	// Trace every request: the LB is the sampling edge.
	lb := proctest.Start(t, bins["janus-lb"], "-addr", proctest.AnyPort, "-backends", routerAddr,
		"-metrics-addr", proctest.AnyPort, "-trace-sample", "1")
	lbAddr, lbMetrics := lb.Addr(t, "gateway load balancer"), lb.Addr(t, "metrics/debug")

	check := func(key string) (bool, error) {
		resp, err := http.Get(fmt.Sprintf("http://%s/qos?key=%s", lbAddr, key))
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return false, fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
		}
		return string(body) == "true", nil
	}

	// Warm up until the stack answers, then drain carol (3 credits) so the
	// run has both admitted and denied decisions.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ok, err := check("carol"); err == nil && ok {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("first check never succeeded: ok=%v err=%v", ok, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	admitted, denied := 1, 0
	for i := 0; i < 6; i++ {
		ok, err := check("carol")
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			admitted++
		} else {
			denied++
		}
	}
	if admitted != 3 || denied != 4 {
		t.Fatalf("carol admitted=%d denied=%d, want 3/4", admitted, denied)
	}

	// --- /metrics on every tier reflects the 7 requests. ---
	lbExp := httpGet(t, "http://"+lbMetrics+"/metrics")
	if v := promValue(t, lbExp, "janus_lb_requests_total"); v != 7 {
		t.Fatalf("janus_lb_requests_total = %v, want 7", v)
	}
	if !strings.Contains(lbExp, `janus_lb_backend_served_total{backend="`+routerAddr+`"} 7`) {
		t.Fatalf("missing per-backend served counter:\n%s", lbExp)
	}
	if !strings.Contains(lbExp, `janus_lb_latency_seconds_count 7`) {
		t.Fatalf("missing lb latency summary:\n%s", lbExp)
	}

	routerExp := httpGet(t, "http://"+routerMetrics+"/metrics")
	if v := promValue(t, routerExp, "janus_router_requests_total"); v != 7 {
		t.Fatalf("janus_router_requests_total = %v, want 7", v)
	}
	if v := promValue(t, routerExp, "janus_transport_responses_total"); v < 7 {
		t.Fatalf("janus_transport_responses_total = %v, want >= 7", v)
	}

	qosExp := httpGet(t, "http://"+qosMetrics+"/metrics")
	if v := promValue(t, qosExp, "janus_qos_decisions_total"); v < 7 {
		t.Fatalf("janus_qos_decisions_total = %v, want >= 7", v)
	}
	if v := promValue(t, qosExp, "janus_qos_decisions_denied_total"); v < 4 {
		t.Fatalf("janus_qos_decisions_denied_total = %v, want >= 4", v)
	}

	// --- The LB assembled complete traces with >= 3 hops. ---
	var dump trace.Dump
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+lbMetrics+"/debug/traces")), &dump); err != nil {
		t.Fatalf("bad /debug/traces JSON: %v", err)
	}
	if dump.Service != "janus-lb" || dump.Recorded < 7 {
		t.Fatalf("lb dump service=%q recorded=%d, want janus-lb/>=7", dump.Service, dump.Recorded)
	}
	if len(dump.Recent) == 0 {
		t.Fatal("lb recorded no traces")
	}
	full := dump.Recent[0]
	hops := make(map[string]bool, len(full.Spans))
	for _, s := range full.Spans {
		hops[s.Hop] = true
	}
	for _, hop := range []string{"lb", "router", "qosserver"} {
		if !hops[hop] {
			t.Fatalf("trace %v missing hop %q: %+v", full.ID, hop, full.Spans)
		}
	}
	if full.Dur <= 0 {
		t.Fatalf("trace %v has no duration", full.ID)
	}

	// The same trace ID correlates across tiers: the QoS server recorded its
	// own partial trace under the ID the LB assigned.
	var qosDump trace.Dump
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+qosMetrics+"/debug/traces")), &qosDump); err != nil {
		t.Fatalf("bad janusd /debug/traces JSON: %v", err)
	}
	found := false
	for _, tr := range qosDump.Recent {
		if tr.ID == full.ID {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("trace %v not found in janusd recorder (has %d traces)", full.ID, len(qosDump.Recent))
	}

	// --- /debug/qos exposes the intake state and the bucket table. ---
	var qos struct {
		Intake  map[string]any   `json:"intake"`
		Buckets []map[string]any `json:"buckets"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+qosMetrics+"/debug/qos")), &qos); err != nil {
		t.Fatalf("bad /debug/qos JSON: %v", err)
	}
	buckets := qos.Buckets
	if len(buckets) == 0 {
		t.Fatal("/debug/qos bucket table is empty")
	}
	if st, _ := qos.Intake["codel_state"].(string); st != "ok" && st != "dropping" {
		t.Fatalf("/debug/qos intake has bad codel_state: %v", qos.Intake)
	}
	foundCarol := false
	for _, b := range buckets {
		if b["key"] == "carol" {
			foundCarol = true
			if c, _ := b["capacity"].(float64); c != 3 {
				t.Fatalf("carol capacity = %v, want 3", b["capacity"])
			}
		}
	}
	if !foundCarol {
		t.Fatalf("carol's bucket missing from /debug/qos: %v", buckets)
	}

	// --- /healthz, /readyz, and the index answer on every tier. ---
	for _, addr := range []string{qosMetrics, routerMetrics, lbMetrics, coordMetrics} {
		if body := httpGet(t, "http://"+addr+"/healthz"); body != "ok\n" {
			t.Fatalf("%s/healthz = %q", addr, body)
		}
		var ready struct {
			Ready bool `json:"ready"`
		}
		if err := json.Unmarshal([]byte(httpGet(t, "http://"+addr+"/readyz")), &ready); err != nil {
			t.Fatalf("%s/readyz: %v", addr, err)
		}
		if !ready.Ready {
			t.Fatalf("%s/readyz not ready with a live coordinator", addr)
		}
	}

	// --- Every tier identifies its build. ---
	for _, addr := range []string{qosMetrics, routerMetrics, lbMetrics, coordMetrics} {
		exp := httpGet(t, "http://"+addr+"/metrics")
		if !strings.Contains(exp, "janus_build_info{") {
			t.Fatalf("%s/metrics missing janus_build_info:\n%s", addr, exp)
		}
	}

	// --- Per-stage sojourn decomposition on the QoS server. ---
	// observeSojourn runs after the response datagram leaves, so the last
	// request's sample can trail the client's view of the reply briefly.
	deadline = time.Now().Add(5 * time.Second)
	for {
		qosExp = httpGet(t, "http://"+qosMetrics+"/metrics")
		if promValue(t, qosExp, `janus_qos_sojourn_seconds_count{stage="total"}`) >= 7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sojourn total count never reached 7:\n%s", qosExp)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, stage := range []string{"queue", "decide", "send", "total"} {
		if v := promValue(t, qosExp, fmt.Sprintf(`janus_qos_sojourn_seconds_count{stage=%q}`, stage)); v < 7 {
			t.Fatalf("sojourn stage %q count = %v, want >= 7", stage, v)
		}
		// The cumulative +Inf bucket closes every stage's ladder.
		if !strings.Contains(qosExp, fmt.Sprintf(`janus_qos_sojourn_seconds_bucket{stage=%q,le="+Inf"}`, stage)) {
			t.Fatalf("sojourn stage %q missing +Inf bucket:\n%s", stage, qosExp)
		}
	}

	// --- The admission-audit ledger holds under real load. ---
	var auditReport struct {
		Verdict string `json:"verdict"`
		Buckets int    `json:"buckets"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+qosMetrics+"/debug/audit")), &auditReport); err != nil {
		t.Fatalf("bad /debug/audit JSON: %v", err)
	}
	if auditReport.Verdict != "ok" || auditReport.Buckets == 0 {
		t.Fatalf("janusd audit = %+v, want ok over >= 1 bucket", auditReport)
	}
	if v := promValue(t, qosExp, "janus_qos_audit_overspend_total"); v != 0 {
		t.Fatalf("janus_qos_audit_overspend_total = %v on an honest run", v)
	}

	// --- The flight recorder holds the epoch swap the gauges only imply. ---
	routerExp = httpGet(t, "http://"+routerMetrics+"/metrics")
	epoch := promValue(t, routerExp, "janus_router_view_epoch")
	if epoch < 1 {
		t.Fatalf("janus_router_view_epoch = %v, want >= 1 after joining the coordinator", epoch)
	}
	var evDump events.Dump
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+routerMetrics+"/debug/events")), &evDump); err != nil {
		t.Fatalf("bad /debug/events JSON: %v", err)
	}
	if evDump.Service != "janus-router" || evDump.Recorded == 0 {
		t.Fatalf("router event dump service=%q recorded=%d", evDump.Service, evDump.Recorded)
	}
	swapAt := -1.0
	for _, e := range evDump.Events {
		if e.Component == "router" && e.Kind == "epoch-swap" && e.Value > swapAt {
			swapAt = e.Value
		}
	}
	if swapAt != epoch {
		t.Fatalf("flight recorder's latest epoch-swap = %v, gauge says %v:\n%+v", swapAt, epoch, evDump.Events)
	}
}
