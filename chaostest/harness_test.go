package chaostest

// Process-level harness: daemon lifecycle with captured stderr, HTTP/JSON
// probes against debugz endpoints, Prometheus scraping, and a raw UDP
// checker built on the real transport client.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/proctest"
	"repro/internal/transport"
	"repro/internal/wire"
)

// attachFlightRecorder arranges for each daemon's /debug/events page — the
// flight recorder's ordered control-plane transitions (epoch swaps,
// handoffs, failpoint fires, audit overspends) — to be dumped
// into the test log when the test fails. addrs are debugz addresses; a
// daemon that died with the failure just logs the fetch error.
func attachFlightRecorder(t *testing.T, addrs ...string) {
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		for _, addr := range addrs {
			resp, err := http.Get("http://" + addr + "/debug/events")
			if err != nil {
				t.Logf("flight recorder %s: %v", addr, err)
				continue
			}
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			t.Logf("flight recorder %s:\n%s", addr, body)
		}
	})
}

// fpClient arms failpoints in a daemon process through the
// /debug/failpoints endpoint its debugz mux serves (failpoint.Handler).
type fpClient struct {
	endpoint string // the daemon's debug host:port
}

// Arm arms name with the action spec (failpoint's spec grammar).
func (c fpClient) Arm(name, spec string) error {
	return c.post(url.Values{"name": {name}, "action": {spec}})
}

// DisarmAll disarms every failpoint in the daemon.
func (c fpClient) DisarmAll() error { return c.post(url.Values{"all": {"off"}}) }

func (c fpClient) post(q url.Values) error {
	resp, err := http.Post("http://"+c.endpoint+"/debug/failpoints?"+q.Encode(), "text/plain", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("failpoint: remote arm: %s", resp.Status)
	}
	return nil
}

// startDaemon runs the named daemon, built by TestMain, under
// proctest.Start: its stderr is dumped when the owning test fails, so a
// chaos failure is debuggable from the daemon's own view of events.
func startDaemon(t *testing.T, name string, args ...string) *proctest.Daemon {
	t.Helper()
	bin, ok := bins[name]
	if !ok {
		t.Fatalf("no binary for %s (multi-process chaos tests need TestMain's build step)", name)
	}
	return proctest.Start(t, bin, args...)
}

// httpResult is one gateway-style admission check against a router.
type httpResult struct {
	code    int
	status  string // X-Janus-Status header
	body    string
	elapsed time.Duration
}

// checkHTTP issues GET /qos?key= against a router HTTP address.
func checkHTTP(routerAddr, key string) (httpResult, error) {
	start := time.Now()
	resp, err := http.Get(fmt.Sprintf("http://%s/qos?key=%s", routerAddr, key))
	if err != nil {
		return httpResult{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return httpResult{}, err
	}
	return httpResult{
		code:    resp.StatusCode,
		status:  resp.Header.Get(wire.HTTPStatusHeader),
		body:    string(body),
		elapsed: time.Since(start),
	}, nil
}

// warmHTTP retries checkHTTP until the stack answers with a non-error
// verdict (UDP sockets and view polling need a beat after process start).
func warmHTTP(t *testing.T, routerAddr, key string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := checkHTTP(routerAddr, key)
		if err == nil && res.code == http.StatusOK &&
			(res.status == wire.StatusOK.String() || res.status == wire.StatusDefaultRule.String()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stack never warmed up: res=%+v err=%v", res, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// getJSON decodes the JSON at http://<addr><path> into out.
func getJSON(addr, path string, out any) error {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// scrapeMetric reads one sample (with its full label set, e.g.
// `janus_router_default_replies_total{mode="fail_closed"}`) from a daemon's
// /metrics page. Missing series read as 0, like a fresh counter.
func scrapeMetric(t *testing.T, addr, series string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", addr, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, series+" ")), 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		return v
	}
	return 0
}

// udpChecker drives admission checks straight at one QoS server over the
// real transport client, bypassing the router tier.
type udpChecker struct {
	cl *transport.Client
}

func dialUDP(t *testing.T, addr string) *udpChecker {
	t.Helper()
	cl, err := transport.Dial(addr, transport.Config{Timeout: 50 * time.Millisecond, Retries: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return &udpChecker{cl: cl}
}

// check consumes one credit for key; a transport error reads as a deny.
func (u *udpChecker) check(key string) (bool, error) {
	resp, err := u.cl.Do(wire.Request{Key: key, Cost: 1})
	if err != nil {
		return false, err
	}
	return resp.Allow, nil
}

// mustCheck fails the test on a transport error.
func (u *udpChecker) mustCheck(t *testing.T, key string) bool {
	t.Helper()
	ok, err := u.check(key)
	if err != nil {
		t.Fatalf("udp check %q: %v", key, err)
	}
	return ok
}

// bucketRow mirrors qosserver.BucketSnapshot's JSON at /debug/qos.
type bucketRow struct {
	Key        string  `json:"key"`
	Credit     float64 `json:"credit"`
	Capacity   float64 `json:"capacity"`
	RefillRate float64 `json:"refill_rate"`
}

// bucketCredit reads key's credit from a daemon's /debug/qos snapshot
// (the "buckets" half of the {intake, buckets} document); ok reports
// whether the key was present at all.
func bucketCredit(addr, key string) (float64, bool, error) {
	var doc struct {
		Buckets []bucketRow `json:"buckets"`
	}
	if err := getJSON(addr, "/debug/qos", &doc); err != nil {
		return 0, false, err
	}
	for _, r := range doc.Buckets {
		if r.Key == key {
			return r.Credit, true, nil
		}
	}
	return 0, false, nil
}

// loadDuration scales a phase length for the run budget.
func loadDuration(short time.Duration) time.Duration {
	if longBudget {
		return 4 * short
	}
	return short
}
