package lb

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newEcho starts a back end that answers with its own id and optionally
// stalls to hold connections open.
func newEcho(t *testing.T, id string, stall time.Duration) *httptest.Server {
	t.Helper()
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stall > 0 {
			time.Sleep(stall)
		}
		w.Header().Set("X-Backend", id)
		io.WriteString(w, id)
	}))
	t.Cleanup(s.Close)
	return s
}

func addrOf(s *httptest.Server) string { return s.Listener.Addr().String() }

func newLB(t *testing.T, cfg Config) *LB {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func get(t *testing.T, addr, path string) (string, int) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body), resp.StatusCode
}

func TestRoundRobinDistribution(t *testing.T) {
	b1 := newEcho(t, "one", 0)
	b2 := newEcho(t, "two", 0)
	l := newLB(t, Config{Backends: []string{addrOf(b1), addrOf(b2)}})
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		body, code := get(t, l.Addr(), "/qos?key=k")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		counts[body]++
	}
	if counts["one"] != 5 || counts["two"] != 5 {
		t.Fatalf("distribution = %v, want exact 5/5 round robin", counts)
	}
	served := l.ServedPerBackend()
	if served[addrOf(b1)] != 5 || served[addrOf(b2)] != 5 {
		t.Fatalf("served = %v", served)
	}
}

func TestFailoverToHealthyBackend(t *testing.T) {
	dead := newEcho(t, "dead", 0)
	live := newEcho(t, "live", 0)
	deadAddr := addrOf(dead)
	dead.Close()
	l := newLB(t, Config{Backends: []string{deadAddr, addrOf(live)}})
	for i := 0; i < 4; i++ {
		body, code := get(t, l.Addr(), "/q")
		if code != http.StatusOK || body != "live" {
			t.Fatalf("request %d: %q %d", i, body, code)
		}
	}
	if l.Stats().BackendErrors == 0 {
		t.Fatal("backend errors not counted")
	}
}

func TestAllBackendsDownReturns502(t *testing.T) {
	b := newEcho(t, "x", 0)
	addr := addrOf(b)
	b.Close()
	l := newLB(t, Config{Backends: []string{addr}})
	_, code := get(t, l.Addr(), "/q")
	if code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", code)
	}
	if l.Stats().NoBackends != 1 {
		t.Fatalf("stats = %+v", l.Stats())
	}
}

func TestNoBackendsConfigured(t *testing.T) {
	l := newLB(t, Config{})
	_, code := get(t, l.Addr(), "/q")
	if code != http.StatusBadGateway {
		t.Fatalf("status = %d", code)
	}
}

func TestAddRemoveBackend(t *testing.T) {
	b1 := newEcho(t, "one", 0)
	b2 := newEcho(t, "two", 0)
	l := newLB(t, Config{Backends: []string{addrOf(b1)}})
	l.AddBackend(addrOf(b2))
	l.AddBackend(addrOf(b2)) // duplicate ignored
	if n := len(l.Backends()); n != 2 {
		t.Fatalf("backends = %d", n)
	}
	l.RemoveBackend(addrOf(b1))
	for i := 0; i < 3; i++ {
		body, _ := get(t, l.Addr(), "/q")
		if body != "two" {
			t.Fatalf("removed backend still serving: %q", body)
		}
	}
	l.RemoveBackend(addrOf(b2))
	if n := len(l.Backends()); n != 0 {
		t.Fatalf("backends = %d", n)
	}
}

func TestHopDelayApplied(t *testing.T) {
	b := newEcho(t, "x", 0)
	var calls atomic.Int64
	l := newLB(t, Config{
		Backends: []string{addrOf(b)},
		HopDelay: func() { calls.Add(1) },
	})
	get(t, l.Addr(), "/q")
	get(t, l.Addr(), "/q")
	if calls.Load() != 2 {
		t.Fatalf("hop delay calls = %d", calls.Load())
	}
}

func TestHeadersAndStatusRelayed(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Janus-Status", "ok")
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, "true")
	}))
	defer backend.Close()
	l := newLB(t, Config{Backends: []string{backend.Listener.Addr().String()}})
	resp, err := http.Get("http://" + l.Addr() + "/qos?key=k")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot || resp.Header.Get("X-Janus-Status") != "ok" {
		t.Fatalf("relay lost status/headers: %d %q", resp.StatusCode, resp.Header.Get("X-Janus-Status"))
	}
}

func TestQueryStringForwarded(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, r.URL.RawQuery)
	}))
	defer backend.Close()
	l := newLB(t, Config{Backends: []string{backend.Listener.Addr().String()}})
	body, _ := get(t, l.Addr(), "/qos?key=alice&cost=2")
	if body != "key=alice&cost=2" {
		t.Fatalf("query = %q", body)
	}
}

func TestConcurrentProxying(t *testing.T) {
	var served atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		io.WriteString(w, "ok")
	}))
	defer backend.Close()
	l := newLB(t, Config{Backends: []string{backend.Listener.Addr().String()}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				get(t, l.Addr(), fmt.Sprintf("/q%d", i))
			}
		}()
	}
	wg.Wait()
	if served.Load() != 320 {
		t.Fatalf("served = %d", served.Load())
	}
	if l.Latency().Count() != 320 {
		t.Fatalf("latency count = %d", l.Latency().Count())
	}
}
