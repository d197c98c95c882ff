package lb

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/h1"
)

// The tests in this file put a raw TCP fake behind the LB where the bytes of
// a back end's reply matter: what is under test is the LB's own HTTP/1.1
// exchange, so those bytes are chosen here and not by net/http.

// rawBackend accepts connections and hands each, with itself, to serve on a
// goroutine of its own. Cleanup closes the listener and every accepted connection, and
// waits for the goroutines.
type rawBackend struct {
	ln       net.Listener
	accepts  atomic.Int64
	requests atomic.Int64
}

func (s *rawBackend) addr() string { return s.ln.Addr().String() }

func serveRaw(t testing.TB, serve func(s *rawBackend, nc net.Conn, br *bufio.Reader)) *rawBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &rawBackend{ln: ln}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.accepts.Add(1)
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				serve(s, nc, bufio.NewReader(nc))
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, nc := range conns {
			nc.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return s
}

// readRequest consumes one request head and returns it.
func (s *rawBackend) readRequest(br *bufio.Reader) (string, error) {
	var head strings.Builder
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", err
		}
		head.WriteString(line)
		if line == "\r\n" {
			s.requests.Add(1)
			return head.String(), nil
		}
	}
}

// answering is a back end that answers every request on a connection with
// reply, and closes the connection after each reply when once is set.
func answering(t testing.TB, reply string, once bool) *rawBackend {
	return serveRaw(t, func(s *rawBackend, nc net.Conn, br *bufio.Reader) {
		for {
			if _, err := s.readRequest(br); err != nil {
				return
			}
			if _, err := io.WriteString(nc, reply); err != nil || once {
				return
			}
		}
	})
}

// countingEcho is an httptest back end that counts what it serves.
func countingEcho(t *testing.T, id string) (*httptest.Server, *atomic.Int64) {
	var n atomic.Int64
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		io.WriteString(w, id)
	}))
	t.Cleanup(s.Close)
	return s, &n
}

// TestNoFailoverAfterReplyStarted: a back end that sends a head and half a
// body, then closes, has answered — the request's credit is spent — so the
// LB answers 502 and does not try the next router.
func TestNoFailoverAfterReplyStarted(t *testing.T) {
	dying := answering(t, "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\ntrue ", true)
	live, served := countingEcho(t, "live")
	l := newLB(t, Config{Backends: []string{dying.addr(), addrOf(live)}})
	if _, code := get(t, l.Addr(), "/qos?key=k"); code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", code)
	}
	if n := served.Load(); n != 0 {
		t.Fatalf("second back end served %d, want 0", n)
	}
	if got := l.ServedPerBackend()[addrOf(live)]; got != 0 {
		t.Fatalf("LB counts %d served by the second back end", got)
	}
	if st := l.Stats(); st.BackendErrors != 1 || st.Proxied != 1 {
		t.Fatalf("stats = %+v, want one exchange, failed", st)
	}
}

// TestStaleKeepAliveResentToSameBackend: a back end that closes every
// connection after one reply without saying so. Each later request finds
// its pooled connection dead before any reply byte and is re-sent once, on
// a fresh connection to the same back end; no request reaches it twice and
// the other back end is never asked.
func TestStaleKeepAliveResentToSameBackend(t *testing.T) {
	stale := answering(t, "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nstale", true)
	other, served := countingEcho(t, "other")
	// Least connections with nothing outstanding always picks the first.
	l := newLB(t, Config{Backends: []string{stale.addr(), addrOf(other)}, Policy: LeastConnections})
	const requests = 5
	for i := 0; i < requests; i++ {
		if body, code := get(t, l.Addr(), "/qos?key=k"); code != http.StatusOK || body != "stale" {
			t.Fatalf("request %d: %d %q", i, code, body)
		}
	}
	if n := stale.requests.Load(); n != requests {
		t.Fatalf("back end saw %d requests, want %d", n, requests)
	}
	if n := stale.accepts.Load(); n != requests {
		t.Fatalf("%d connections for %d requests, want one dial per request", n, requests)
	}
	if n, errs := served.Load(), l.Stats().BackendErrors; n != 0 || errs != 0 {
		t.Fatalf("other back end served %d, backend errors %d; want 0 and 0", n, errs)
	}
}

// TestRemoveBackendClosesIdleConnections: scale-in closes the LB's idle
// connections to the removed router at once, not after an idle timeout.
func TestRemoveBackendClosesIdleConnections(t *testing.T) {
	closed := make(chan struct{}, 1)
	b := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "true")
	}))
	b.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateClosed {
			select {
			case closed <- struct{}{}:
			default:
			}
		}
	}
	b.Start()
	t.Cleanup(b.Close)
	l := newLB(t, Config{Backends: []string{addrOf(b)}})
	if _, code := get(t, l.Addr(), "/qos?key=k"); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	l.RemoveBackend(addrOf(b))
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("the removed back end's idle connection is still open after 1 s")
	}
}

// TestOnlyGETForwarded: the router serves only GET; anything else, or a GET
// with a body, is refused at the edge without a back end being dialled.
func TestOnlyGETForwarded(t *testing.T) {
	b := answering(t, "HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\ntrue", false)
	l := newLB(t, Config{Backends: []string{b.addr()}})
	url := "http://" + l.Addr() + "/qos?key=k"
	for _, r := range []struct {
		method string
		body   io.Reader
	}{
		{http.MethodPost, strings.NewReader("key=k")},
		{http.MethodPut, nil},
		{http.MethodDelete, nil},
		{http.MethodHead, nil},
		{http.MethodGet, strings.NewReader("x")},
		{http.MethodGet, io.MultiReader(strings.NewReader("x"))}, // no length: sent chunked
	} {
		req, err := http.NewRequest(r.method, url, r.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodGet {
			t.Fatalf("%s with body %v: %d, Allow %q", r.method, r.body != nil, resp.StatusCode, resp.Header.Get("Allow"))
		}
	}
	if n := b.accepts.Load(); n != 0 {
		t.Fatalf("back end dialled %d times", n)
	}
	if body, code := get(t, l.Addr(), "/qos?key=k"); code != http.StatusOK || body != "true" {
		t.Fatalf("GET: %d %q", code, body)
	}
}

// TestRequestForwarded: the request line carries the client's request-URI,
// then Host and, on a traced request only, the trace ID; nothing else of the
// client's request goes to the router.
func TestRequestForwarded(t *testing.T) {
	var heads []string
	var mu sync.Mutex
	b := serveRaw(t, func(b *rawBackend, nc net.Conn, br *bufio.Reader) {
		for {
			head, err := b.readRequest(br)
			if err != nil {
				return
			}
			mu.Lock()
			heads = append(heads, head)
			mu.Unlock()
			if _, err := io.WriteString(nc, "HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\ntrue"); err != nil {
				return
			}
		}
	})
	l := newLB(t, Config{Backends: []string{b.addr()}})
	req, _ := http.NewRequest(http.MethodGet, "http://"+l.Addr()+"/qos?key=a%20b&cost=2", nil)
	req.Header.Set("X-Janus-Trace", "00000000000000ab")
	req.Header.Set("Cookie", "secret")
	for _, r := range []*http.Request{req, mustGet(t, "http://"+l.Addr()+"/healthz")} {
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	want := []string{
		"GET /qos?key=a%20b&cost=2 HTTP/1.1\r\nHost: " + b.addr() + "\r\nX-Janus-Trace: 00000000000000ab\r\n\r\n",
		"GET /healthz HTTP/1.1\r\nHost: " + b.addr() + "\r\n\r\n",
	}
	mu.Lock()
	defer mu.Unlock()
	if strings.Join(heads, "|") != strings.Join(want, "|") {
		t.Fatalf("router got %q, want %q", heads, want)
	}
}

func mustGet(t *testing.T, url string) *http.Request {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// getRequest is a body-less GET of uri as the accept side hands it to proxy.
func getRequest(uri string) *h1.Request {
	return &h1.Request{Method: []byte(http.MethodGet), URI: []byte(uri)}
}

// readReply reads what proxy appended as a client reads it, and insists
// that the reply is framed to its last byte.
func readReply(out []byte) (*http.Response, []byte, error) {
	br := bufio.NewReader(bytes.NewReader(out))
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodGet})
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if br.Buffered() != 0 {
		return nil, nil, fmt.Errorf("%d bytes after the reply", br.Buffered())
	}
	return resp, body, nil
}

// TestHopByHopNotRelayed: the reply's framing and connection headers stay
// on the router leg; a chunked body reaches the client decoded, with a
// Content-Length of the LB's own and a Date, which this back end did not
// send.
func TestHopByHopNotRelayed(t *testing.T) {
	b := answering(t, "HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nKeep-Alive: timeout=5\r\n"+
		"Transfer-Encoding: chunked\r\nX-Janus-Status: ok\r\nx-janus-spans: []\r\n\r\n4\r\ntrue\r\n0\r\n\r\n", false)
	l := newLB(t, Config{Backends: []string{b.addr()}})
	res, body, err := readReply(l.proxy(nil, getRequest("/qos?key=k")))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Header["Date"]) != 1 || res.TransferEncoding != nil {
		t.Fatalf("Date %q, Transfer-Encoding %q", res.Header["Date"], res.TransferEncoding)
	}
	res.Header.Del("Date")
	want := http.Header{"X-Janus-Status": {"ok"}, "X-Janus-Spans": {"[]"}, "Content-Length": {"4"}}
	if res.StatusCode != http.StatusOK || string(body) != "true" || !equalHeaders(res.Header, want) {
		t.Fatalf("relayed %d %v %q, want 200 %v \"true\"", res.StatusCode, res.Header, body, want)
	}
}

func equalHeaders(a, b http.Header) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		if strings.Join(va, "\x00") != strings.Join(b[k], "\x00") || len(va) != len(b[k]) {
			return false
		}
	}
	return true
}

// TestForwardAllocPin: on a warmed connection, proxying a router-shaped
// reply allocates nothing: the relayed lines are appended straight into the
// client's reply, which the accept side keeps per connection. The fake
// allocates nothing either (AllocsPerRun counts the whole process).
func TestForwardAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries; alloc pins run uninstrumented")
	}
	const budget = 0
	reply := []byte("HTTP/1.1 200 OK\r\nX-Janus-Status: ok\r\nDate: Sat, 03 Oct 2026 00:00:00 GMT\r\n" +
		"Content-Length: 4\r\nContent-Type: text/plain; charset=utf-8\r\n\r\ntrue")
	b := serveRaw(t, func(_ *rawBackend, nc net.Conn, _ *bufio.Reader) {
		buf := make([]byte, 1024)
		for n := 0; ; {
			m, err := nc.Read(buf[n:])
			if err != nil {
				return
			}
			if n += m; !bytes.HasSuffix(buf[:n], []byte("\r\n\r\n")) {
				continue
			}
			n = 0
			if _, err := nc.Write(reply); err != nil {
				return
			}
		}
	})
	l := newLB(t, Config{Backends: []string{b.addr()}})
	req := getRequest("/qos?key=user-42&cost=1")
	const want = "HTTP/1.1 200 OK\r\nX-Janus-Status: ok\r\nDate: Sat, 03 Oct 2026 00:00:00 GMT\r\n" +
		"Content-Type: text/plain; charset=utf-8\r\nContent-Length: 4\r\n\r\ntrue"
	var out []byte
	proxy := func() {
		if out = l.proxy(out[:0], req); string(out) != want {
			t.Fatalf("relayed %q, want %q", out, want)
		}
	}
	proxy() // dial, grow the buffers and the pool
	if n := testing.AllocsPerRun(200, proxy); n != budget {
		t.Fatalf("proxy allocates %v times per request on a warmed connection, want %d", n, budget)
	}
	if n := b.accepts.Load(); n != 1 {
		t.Fatalf("%d connections, want 1", n)
	}
}

// hopByHop are the reply headers the LB does not relay: the framing, which
// it writes anew, and the connection's.
var hopByHop = []string{"Connection", "Keep-Alive", "Transfer-Encoding", "Trailer", "Content-Length"}

// netHTTPReads is the reference for FuzzLBRelay: the final reply net/http
// reads from the same bytes, skipping interim replies as its Transport does.
func netHTTPReads(reply []byte) (resp *http.Response, body []byte, ok bool) {
	br := bufio.NewReader(bytes.NewReader(reply))
	for i := 0; i <= h1.MaxInterim; i++ {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			return nil, nil, false
		}
		if resp.StatusCode/100 == 1 && resp.StatusCode != http.StatusSwitchingProtocols {
			continue
		}
		body, err := io.ReadAll(resp.Body)
		return resp, body, err == nil
	}
	return nil, nil, false
}

// FuzzLBRelay: whatever bytes a back end sends before closing, the LB does
// not panic, and either treats the back end as failed and, with no other
// back end to try, answers 502, or answers with a reply http.ReadResponse
// reads, framed to its last byte, with the status, the end-to-end header set
// and the body that http.ReadResponse reads from the back end's bytes. Of
// its own, the reply adds one Content-Length, which matches the body (none
// for 204 and 304), and a Date when the back end sent none.
func FuzzLBRelay(f *testing.F) {
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nX-Janus-Status: ok\r\nContent-Length: 4\r\nContent-Type: text/plain; charset=utf-8\r\n\r\ntrue",
		"HTTP/1.1 403 Forbidden\r\nx-janus-status: DENY\r\nContent-Length: 5\r\n\r\nfalse",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-T\r\nX-A: 1\r\nX-A: 2\r\n\r\n4\r\ntrue\r\n0\r\n\r\n",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nKeep-Alive: timeout=5\r\n\r\nclose-delimited",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 204 No Content\r\nContent-Length: 3\r\n\r\nxyz",
		"HTTP/1.1 101 Switching Protocols\r\nUpgrade: x\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX-Janus-Spans: " + strings.Repeat("s", 2*h1.ReadBuffer) + "\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\ntrue",
		"HTTP/1.1 200 OK\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\ntrue",
		"HTTP/1.1 099 Low\r\nContent-Length: 4\r\n\r\ntrue",
		"HTTP/1.1 200 OK\r\n X-Folded: 1\r\n\r\n",
		"",
		"HTTP/1.1 304 Not Modified\r\nDate: Sat, 03 Oct 2026 00:00:00 GMT\r\ndate: x\r\nContent-Length: 9\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	var reply atomic.Pointer[[]byte] // one request is in flight at a time
	b := serveRaw(f, func(b *rawBackend, nc net.Conn, br *bufio.Reader) {
		if _, err := b.readRequest(br); err == nil {
			nc.Write(*reply.Load())
		}
	})
	l, err := New(Config{Addr: "127.0.0.1:0", Backends: []string{b.addr()}})
	if err != nil {
		f.Fatal(err)
	}
	defer l.Close()
	l.backends[0].pool.Close() // every exchange dials: each reply is a connection's first
	req := getRequest("/qos?key=k")
	f.Fuzz(func(t *testing.T, data []byte) {
		reply.Store(&data)
		errs := l.Stats().BackendErrors
		out := l.proxy(nil, req)
		got, body, err := readReply(out)
		if err != nil {
			t.Fatalf("net/http cannot read the LB's reply %q: %v", out, err)
		}
		if l.Stats().BackendErrors != errs {
			if got.StatusCode != http.StatusBadGateway {
				t.Fatalf("back end failed, but the LB answered %d to %q", got.StatusCode, data)
			}
			return
		}
		want, wantBody, ok := netHTTPReads(data)
		if !ok {
			t.Fatalf("LB relayed %q from a reply net/http does not read: %q", out, data)
		}
		length := []string{strconv.Itoa(len(body))}
		if got.StatusCode == http.StatusNoContent || got.StatusCode == http.StatusNotModified {
			length = nil
		}
		if cl := got.Header["Content-Length"]; strings.Join(cl, ",") != strings.Join(length, ",") || got.TransferEncoding != nil {
			t.Fatalf("LB framed a %d-byte body with Content-Length %q, Transfer-Encoding %q: %q", len(body), cl, got.TransferEncoding, out)
		}
		got.Header.Del("Content-Length")
		for _, name := range hopByHop {
			want.Header.Del(name)
		}
		if want.Header["Date"] == nil {
			if len(got.Header["Date"]) != 1 {
				t.Fatalf("LB added Date %q to a reply without one: %q", got.Header["Date"], out)
			}
			got.Header.Del("Date")
		}
		if got.StatusCode != want.StatusCode || !equalHeaders(got.Header, want.Header) || !bytes.Equal(body, wantBody) {
			t.Fatalf("LB relayed %d %v %q; net/http reads %d %v %q from %q",
				got.StatusCode, got.Header, body, want.StatusCode, want.Header, wantBody, data)
		}
	})
}
