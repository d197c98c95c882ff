package client

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// fakeJanus answers the QoS protocol: keys beginning with "allow" admit.
func fakeJanus(t *testing.T) *httptest.Server {
	t.Helper()
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("key")
		if key == "" {
			http.Error(w, "missing key", http.StatusBadRequest)
			return
		}
		if strings.HasPrefix(key, "allow") {
			io.WriteString(w, "true")
		} else {
			io.WriteString(w, "false")
		}
	}))
	t.Cleanup(s.Close)
	return s
}

func TestCheck(t *testing.T) {
	j := fakeJanus(t)
	c := New(j.Listener.Addr().String())
	if ok, err := c.Check("allow-1"); err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if ok, err := c.Check("deny-1"); err != nil || ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

func TestCheckCostPassesThrough(t *testing.T) {
	var gotCost atomic.Value
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotCost.Store(r.URL.Query().Get("cost"))
		io.WriteString(w, "true")
	}))
	defer s.Close()
	c := New(s.Listener.Addr().String())
	if _, err := c.checkCost("k", 2.5); err != nil {
		t.Fatal(err)
	}
	if gotCost.Load() != "2.5" {
		t.Fatalf("cost = %v", gotCost.Load())
	}
}

func TestFailOpenFailClosed(t *testing.T) {
	closed := New("127.0.0.1:1")
	if ok, err := closed.Check("k"); err == nil || ok {
		t.Fatalf("fail-closed: ok=%v err=%v", ok, err)
	}
	open := New("127.0.0.1:1")
	open.FailOpen = true
	if ok, err := open.Check("k"); err == nil || !ok {
		t.Fatalf("fail-open: ok=%v err=%v", ok, err)
	}
}

func TestCheckHTTPError(t *testing.T) {
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer s.Close()
	c := New(s.Listener.Addr().String())
	if _, err := c.Check("k"); err == nil {
		t.Fatal("HTTP 500 not surfaced")
	}
}

func TestCheckBadBody(t *testing.T) {
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "maybe")
	}))
	defer s.Close()
	c := New(s.Listener.Addr().String())
	if _, err := c.Check("k"); err == nil {
		t.Fatal("bad body not surfaced")
	}
}

func TestWrapAllowsAndThrottles(t *testing.T) {
	j := fakeJanus(t)
	c := New(j.Listener.Addr().String())
	var served atomic.Int64
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		io.WriteString(w, "page content")
	})
	app := httptest.NewServer(c.Wrap(func(r *http.Request) string { return r.Header.Get("X-User") }, inner))
	defer app.Close()

	req, _ := http.NewRequest("GET", app.URL, nil)
	req.Header.Set("X-User", "allow-alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("allowed request: %v %v", resp, err)
	}
	resp.Body.Close()

	req.Header.Set("X-User", "deny-mallory")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden || string(body) != ThrottledBody {
		t.Fatalf("throttled: %d %q", resp.StatusCode, body)
	}
	if served.Load() != 1 {
		t.Fatalf("inner handler served %d, want 1", served.Load())
	}
}

func TestKeyFuncs(t *testing.T) {
	r, _ := http.NewRequest("GET", "/", nil)
	r.RemoteAddr = "10.1.2.3:5555"
	if got := ByRemoteIP(r); got != "10.1.2.3" {
		t.Fatalf("ByRemoteIP = %q", got)
	}
	r.RemoteAddr = "no-port"
	if got := ByRemoteIP(r); got != "no-port" {
		t.Fatalf("ByRemoteIP fallback = %q", got)
	}
}
