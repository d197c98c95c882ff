package chaostest

// Invariant 1 — bounded default reply: when every retry is exhausted, the
// router answers with its default verdict inside the fixed retry budget
// (Retries × Timeout), instead of hanging or erroring (paper §III-B: "a
// 100-microsecond communication timeout and a maximum number of 5 retries",
// with a default reply on exhaustion).

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/proctest"
	"repro/internal/wire"
)

func TestInvariantBoundedDefaultReply(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos test skipped in -short mode")
	}

	// One QoS server whose default rule admits everything, so any deny we
	// see later is fabricated by the router, not a bucket decision.
	qos := startDaemon(t, "janusd",
		"-addr", proctest.AnyPort,
		"-default-rate", "100000", "-default-capacity", "100000",
		"-sync", "0", "-checkpoint", "0",
		"-metrics-addr", proctest.AnyPort)
	qosAddr, qosDebug := qos.Addr(t, "QoS server"), qos.Addr(t, "metrics/debug")

	// A fail-closed router with a 5 ms × 5 budget: 25 ms worst case per
	// request once the backend goes dark.
	const (
		perAttempt = 5 * time.Millisecond
		retries    = 5
		budget     = retries * perAttempt
	)
	router := startDaemon(t, "janus-router",
		"-addr", proctest.AnyPort,
		"-backends", qosAddr,
		"-timeout", perAttempt.String(), "-retries", "5",
		"-metrics-addr", proctest.AnyPort)
	routerAddr, routerDebug := router.Addr(t, "request router"), router.Addr(t, "metrics/debug")
	warmHTTP(t, routerAddr, "chaos-warm")
	// On failure, the flight recorders show the default-reply enter/exit
	// edges and the failpoint fires that caused them, in order.
	attachFlightRecorder(t, routerDebug, qosDebug)

	// Black-hole the QoS server: every datagram it receives is dropped
	// before the handler sees it, exactly like wire loss.
	fpc := fpClient{qosDebug}
	if err := fpc.Arm("qosserver/udp/recv", "drop"); err != nil {
		t.Fatalf("arm: %v", err)
	}
	defer fpc.DisarmAll()

	// Every request must still complete: HTTP 200, the fail-closed default
	// verdict, status default-reply, and latency bounded by the budget
	// (×10 slack for process scheduling on a loaded CI box).
	const requests = 20
	for i := 0; i < requests; i++ {
		res, err := checkHTTP(routerAddr, "chaos-dark")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if res.code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d, want 200", i, res.code)
		}
		if res.status != wire.StatusDefaultReply.String() {
			t.Fatalf("request %d: status %q, want %q", i, res.status, wire.StatusDefaultReply)
		}
		if res.body != wire.BodyDeny {
			t.Fatalf("request %d: body %q, want fail-closed %q", i, res.body, wire.BodyDeny)
		}
		if res.elapsed > 10*budget {
			t.Fatalf("request %d: took %v, budget is %v (bound %v)", i, res.elapsed, budget, 10*budget)
		}
	}

	// The fabricated replies are visible on /metrics under the mode label.
	got := scrapeMetric(t, routerDebug, `janus_router_default_replies_total{mode="fail_closed"}`)
	if got < requests {
		t.Errorf(`janus_router_default_replies_total{mode="fail_closed"} = %v, want >= %d`, got, requests)
	}

	// Disarm and the stack recovers: real verdicts come back.
	if err := fpc.DisarmAll(); err != nil {
		t.Fatalf("disarm: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := checkHTTP(routerAddr, "chaos-recover")
		if err == nil && res.status == wire.StatusDefaultRule.String() && res.body == wire.BodyAllow {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never recovered after disarm: res=%+v err=%v", res, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
