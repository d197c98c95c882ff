package router

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"repro/internal/bucket"
	"repro/internal/transport"
	"repro/internal/wire"
)

// exchange sends raw, one request, on a connection of its own and reads the
// reply as net/http does.
func exchange(t *testing.T, r *Router, method, raw string) (*http.Response, string) {
	t.Helper()
	nc, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, raw); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(nc), &http.Request{Method: method})
	if err != nil {
		t.Fatalf("%q: %v", raw, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%q: %v", raw, err)
	}
	return resp, string(body)
}

// TestServedRequests: the router serves GET only, a GET without a body, and
// only its two paths; a cost that is not a finite number ≥ 0 is a bad
// request.
func TestServedRequests(t *testing.T) {
	qs := newBackend(t, bucket.Rule{Key: "k", RefillRate: 1e9, Capacity: 1e9, Credit: 1e9})
	r := newRouter(t, Config{Backends: []string{qs.Addr()}})
	const end = " HTTP/1.1\r\nHost: r\r\n\r\n"
	for _, c := range []struct {
		method, raw string
		status      int
		body        string
	}{
		{"GET", "GET /qos?key=k" + end, http.StatusOK, "true"},
		{"GET", "GET http://router.example:8080/qos?cost=2&key=k" + end, http.StatusOK, "true"},
		{"GET", "GET /healthz" + end, http.StatusOK, "ok"},
		{"GET", "GET /nope?key=k" + end, http.StatusNotFound, "404 page not found\n"},
		{"GET", "GET /qos?key=k&cost=NaN" + end, http.StatusBadRequest, "wire: invalid cost \"NaN\"\n"},
		{"GET", "GET /qos?key=k&cost=%2BInf" + end, http.StatusBadRequest, "wire: invalid cost \"+Inf\"\n"},
		{"GET", "GET /qos?key=k HTTP/1.1\r\nContent-Length: 1\r\n\r\nx", http.StatusBadRequest, "router: a GET has no body\n"},
		{"GET", "GET /qos?key=k HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nx\r\n0\r\n\r\n", http.StatusBadRequest, "router: a GET has no body\n"},
		{"POST", "POST /qos?key=k HTTP/1.1\r\nContent-Length: 5\r\n\r\nkey=k", http.StatusMethodNotAllowed, "router: only GET is served\n"},
		{"HEAD", "HEAD /qos?key=k" + end, http.StatusMethodNotAllowed, ""},
	} {
		resp, body := exchange(t, r, c.method, c.raw)
		if resp.StatusCode != c.status || body != c.body {
			t.Errorf("%q: %d %q, want %d %q", c.raw, resp.StatusCode, body, c.status, c.body)
		}
		if allow := resp.Header.Get("Allow"); (allow == http.MethodGet) != (c.status == http.StatusMethodNotAllowed) {
			t.Errorf("%q: Allow %q", c.raw, allow)
		}
	}
	if st := r.Stats(); st.Requests != 2 || st.BadRequests != 4 {
		t.Fatalf("stats = %+v, want 2 requests and 4 bad ones", st)
	}
}

// TestQoSReplyHeaders holds the wire contract of a verdict: Content-Type,
// X-Janus-Status, Content-Length and one Date, and X-Janus-Spans only on a
// traced request.
func TestQoSReplyHeaders(t *testing.T) {
	qs := newBackend(t, bucket.Rule{Key: "k", RefillRate: 1e9, Capacity: 1e9, Credit: 1e9})
	r := newRouter(t, Config{Backends: []string{qs.Addr()}})
	for _, traced := range []bool{false, true} {
		raw := "GET /qos?key=k HTTP/1.1\r\nHost: r\r\n\r\n"
		if traced {
			raw = "GET /qos?key=k HTTP/1.1\r\nHost: r\r\nX-Janus-Trace: 00000000000000ab\r\n\r\n"
		}
		resp, body := exchange(t, r, "GET", raw)
		h := resp.Header
		spans := h.Get("X-Janus-Spans")
		if resp.StatusCode != http.StatusOK || body != "true" || h.Get("Content-Type") != "text/plain; charset=utf-8" ||
			h.Get(wire.HTTPStatusHeader) != "ok" || resp.ContentLength != 4 || len(h["Date"]) != 1 ||
			(spans != "") != traced || len(h) != 4+len(h["X-Janus-Spans"]) {
			t.Fatalf("traced=%v: %d %q %v", traced, resp.StatusCode, body, h)
		}
		if traced && !strings.Contains(spans, `"hop":"router"`) {
			t.Fatalf("spans %q", spans)
		}
	}
}

// TestRouteAllocPin: routing a request to a UDP back end allocates nothing
// once warm — the pick, the exchange on an idle socket, and the echo server's
// side of the datagram (AllocsPerRun counts the whole process).
func TestRouteAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins run uninstrumented")
	}
	echo, err := transport.NewServer("127.0.0.1:0", func(wire.Request) wire.Response { return wire.Response{Allow: true} })
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	r := newRouter(t, Config{Backends: []string{echo.Addr()}})
	req := wire.Request{Key: "user-42", Cost: 1}
	route := func() {
		if !r.Route(req).Allow {
			t.Fatal("echo denied")
		}
	}
	route()
	if n := testing.AllocsPerRun(200, route); n != 0 {
		t.Fatalf("Route allocates %v times per request, want 0", n)
	}
}

// TestServeQoSAllocPin: an untraced /qos request on a held connection
// allocates at most one object more than Router.Route does — the key's
// string. The client side allocates nothing (AllocsPerRun counts the whole
// process, the UDP echo back end included on both sides of the comparison).
func TestServeQoSAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins run uninstrumented")
	}
	echo, err := transport.NewServer("127.0.0.1:0", func(wire.Request) wire.Response { return wire.Response{Allow: true} })
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	r := newRouter(t, Config{Backends: []string{echo.Addr()}})
	req := wire.Request{Key: "user-42", Cost: 1}
	route := func() {
		if !r.Route(req).Allow {
			t.Fatal("echo denied")
		}
	}
	route()
	routeAllocs := testing.AllocsPerRun(200, route)

	nc, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	request := []byte("GET " + wire.FormatHTTPQuery(req) + " HTTP/1.1\r\nHost: r\r\n\r\n")
	buf := make([]byte, 1024)
	serve := func() {
		if _, err := nc.Write(request); err != nil {
			t.Fatal(err)
		}
		for n := 0; ; {
			m, err := nc.Read(buf[n:])
			if err != nil {
				t.Fatal(err)
			}
			if n += m; bytes.HasSuffix(buf[:n], []byte("\r\n\r\ntrue")) {
				return
			}
		}
	}
	serve()
	n := testing.AllocsPerRun(200, serve)
	t.Logf("route %v, serve %v", routeAllocs, n)
	if n > routeAllocs+1 {
		t.Fatalf("a /qos request allocates %v times, Route %v; want at most one more", n, routeAllocs)
	}
}
