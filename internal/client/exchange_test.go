package client

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/h1"
)

// The tests in this file drive the client against a raw TCP fake rather
// than httptest: what is under test is the client's own HTTP/1.1 parser,
// so the bytes of every reply are chosen here and not by net/http.

// rawServer accepts connections and hands each to serve on a goroutine of
// its own. Cleanup closes the listener and every accepted connection, and
// waits for the goroutines.
type rawServer struct {
	ln      net.Listener
	accepts atomic.Int64
}

func (s *rawServer) addr() string { return s.ln.Addr().String() }

func serveRaw(t testing.TB, serve func(nc net.Conn, br *bufio.Reader)) *rawServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &rawServer{ln: ln}
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
				serve(nc, bufio.NewReader(nc))
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

// readRequest consumes one request and returns the key it carries.
func readRequest(br *bufio.Reader) (key string, err error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	parts := strings.Fields(line)
	if len(parts) == 3 {
		if u, err := url.ParseRequestURI(parts[1]); err == nil {
			key = u.Query().Get("key")
		}
	}
	for {
		l, err := br.ReadString('\n')
		if err != nil {
			return "", err
		}
		if l == "\r\n" {
			return key, nil
		}
	}
}

// closeIdle empties the pool; a Client has no Close of its own because its
// connections expire (and are finalized) without one.
func (c *Client) closeIdle() { c.pool.Close() }

func (c *Client) idleCount() int { return c.pool.Idle() }

func newTestClient(t testing.TB, addr string) *Client {
	c := New(addr)
	t.Cleanup(c.closeIdle)
	return c
}

// framing is one reply as the server puts it on the wire.
type framing struct {
	name  string
	reply string
	// closes: the server closes the connection after the reply (it must,
	// when only that ends the body).
	closes bool
	allow  bool
	fails  bool
	// pooled: the client may use the connection again.
	pooled bool
}

const ok = "HTTP/1.1 200 OK\r\n"

var framings = []framing{
	{name: "content-length", reply: ok + "Content-Length: 4\r\n\r\ntrue", allow: true, pooled: true},
	{name: "content-length deny", reply: ok + "Content-Type: text/plain; charset=utf-8\r\nContent-Length: 5\r\n\r\nfalse", pooled: true},
	{name: "chunked", reply: ok + "Transfer-Encoding: chunked\r\n\r\n4\r\ntrue\r\n0\r\n\r\n", allow: true, pooled: true},
	{name: "chunked in two chunks", reply: ok + "transfer-encoding: CHUNKED\r\n\r\n2\r\ntr\r\n2;ext=1\r\nue\r\n0\r\n\r\n", allow: true, pooled: true},
	{name: "HTTP/1.0 close-delimited", reply: "HTTP/1.0 200 OK\r\n\r\ntrue", closes: true, allow: true},
	{name: "HTTP/1.0 with length", reply: "HTTP/1.0 200 OK\r\nContent-Length: 4\r\nConnection: keep-alive\r\n\r\ntrue", allow: true},
	{name: "HTTP/1.1 close-delimited", reply: ok + "\r\nfalse", closes: true},
	{name: "connection close", reply: ok + "Connection: close\r\nContent-Length: 4\r\n\r\ntrue", closes: true, allow: true},
	{name: "connection close in a list", reply: ok + "Content-Length: 4\r\nConnection: foo , Close\r\n\r\ntrue", allow: true},
	{name: "100 continue first", reply: "HTTP/1.1 100 Continue\r\n\r\n" + ok + "Content-Length: 4\r\n\r\ntrue", allow: true, pooled: true},
	{name: "five interim replies", reply: strings.Repeat("HTTP/1.1 103 Early Hints\r\nLink: </x>\r\n\r\n", 5) + ok + "Content-Length: 4\r\n\r\ntrue", allow: true, pooled: true},
	{name: "six interim replies", reply: strings.Repeat("HTTP/1.1 100 Continue\r\n\r\n", 6) + ok + "Content-Length: 4\r\n\r\ntrue", fails: true},
	{name: "lower-case names", reply: "HTTP/1.1 200\r\ncontent-length:4\r\nx-janus-status:ok\r\n\r\ntrue", allow: true, pooled: true},
	{name: "oddly spaced values", reply: ok + "CONTENT-LENGTH: \t 004 \t\r\nX-Empty:\r\n\r\ntrue", allow: true, pooled: true},
	{name: "bare LF line ends", reply: "HTTP/1.1 200 OK\nContent-Length: 4\n\ntrue", allow: true, pooled: true},
	{name: "16 KiB span header skipped", reply: ok + "X-Janus-Spans: " + strings.Repeat("s", 16<<10) + "\r\nContent-Length: 4\r\n\r\ntrue", allow: true, pooled: true},
	{name: "long header ending on the buffer edge", reply: ok + "X-Pad: " + strings.Repeat("p", h1.ReadBuffer-len("X-Pad: ")-1) + "\r\nContent-Length: 4\r\n\r\ntrue", allow: true, pooled: true},
	{name: "body with newline", reply: ok + "Content-Length: 5\r\n\r\ntrue\n", allow: true, pooled: true},
	{name: "body padded to the limit", reply: ok + "Content-Length: 64\r\n\r\n" + strings.Repeat(" ", 59) + "false", pooled: true},
	{name: "body over the limit", reply: ok + "Content-Length: 65\r\n\r\n" + strings.Repeat(" ", 61) + "true", fails: true},
	{name: "chunked body over the limit", reply: ok + "Transfer-Encoding: chunked\r\n\r\n41\r\n" + strings.Repeat(" ", 61) + "true\r\n0\r\n\r\n", fails: true},
	{name: "close-delimited body over the limit", reply: ok + "\r\n" + strings.Repeat(" ", 61) + "true", closes: true, fails: true},
	{name: "negative length", reply: ok + "Content-Length: -1\r\n\r\ntrue", fails: true},
	{name: "signed length", reply: ok + "Content-Length: +4\r\n\r\ntrue", fails: true},
	{name: "garbage length", reply: ok + "Content-Length: four\r\n\r\ntrue", fails: true},
	{name: "empty length", reply: ok + "Content-Length:\r\n\r\ntrue", fails: true},
	{name: "huge length", reply: ok + "Content-Length: 99999999999999999999999\r\n\r\ntrue", fails: true},
	{name: "two lengths", reply: ok + "Content-Length: 4\r\nContent-Length: 4\r\n\r\ntrue", fails: true},
	{name: "length and chunked", reply: ok + "Content-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\n4\r\ntrue\r\n0\r\n\r\n", fails: true},
	{name: "unknown transfer coding", reply: ok + "Transfer-Encoding: gzip, chunked\r\n\r\n4\r\ntrue\r\n0\r\n\r\n", fails: true},
	{name: "chunked on HTTP/1.0", reply: "HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\ntrue\r\n0\r\n\r\n", closes: true, fails: true},
	{name: "chunked with trailer", reply: ok + "Transfer-Encoding: chunked\r\n\r\n4\r\ntrue\r\n0\r\nX-T: 1\r\n\r\n", fails: true},
	{name: "bad chunk size", reply: ok + "Transfer-Encoding: chunked\r\n\r\nzz\r\ntrue\r\n0\r\n\r\n", fails: true},
	{name: "folded header line", reply: ok + "X-A: 1\r\n Content-Length: 4\r\n\r\ntrue", closes: true, fails: true},
	{name: "space in header name", reply: ok + "Content-Length : 4\r\n\r\ntrue", closes: true, fails: true},
	{name: "header without colon", reply: ok + "Content-Length 4\r\n\r\ntrue", fails: true},
	{name: "control byte in a skipped header", reply: ok + "X-A: a\x00b\r\nContent-Length: 4\r\n\r\ntrue", fails: true},
	{name: "bare CR in a skipped header", reply: ok + "X-A: a\r\r\nContent-Length: 4\r\n\r\ntrue", fails: true},
	{name: "bare CR in a long skipped header", reply: ok + "X-A: " + strings.Repeat("a", 2*h1.ReadBuffer) + "\rb\r\nContent-Length: 4\r\n\r\ntrue", fails: true},
	{name: "HTTP/2.0 status line", reply: "HTTP/2.0 200 OK\r\nContent-Length: 4\r\n\r\ntrue", fails: true},
	{name: "short status code", reply: "HTTP/1.1 20 OK\r\nContent-Length: 4\r\n\r\ntrue", fails: true},
	{name: "not HTTP at all", reply: "true\r\n\r\n", closes: true, fails: true},
	{name: "truncated head", reply: ok + "Content-Le", closes: true, fails: true},
	{name: "truncated body", reply: ok + "Content-Length: 4\r\n\r\ntr", closes: true, fails: true},
	{name: "truncated chunked body", reply: ok + "Transfer-Encoding: chunked\r\n\r\n4\r\ntrue\r\n0\r\n", closes: true, fails: true},
	{name: "no reply", reply: "", closes: true, fails: true},
	{name: "bad body", reply: ok + "Content-Length: 5\r\n\r\nmaybe", fails: true, pooled: true},
	{name: "empty body", reply: ok + "Content-Length: 0\r\n\r\n", fails: true, pooled: true},
	{name: "500 with body", reply: "HTTP/1.1 500 Internal Server Error\r\nContent-Length: 5\r\n\r\nboom\n", fails: true, pooled: true},
	{name: "400 chunked", reply: "HTTP/1.1 400 Bad Request\r\nTransfer-Encoding: chunked\r\n\r\nc\r\nmissing key\n\r\n0\r\n\r\n", fails: true, pooled: true},
	{name: "204 has no body", reply: "HTTP/1.1 204 No Content\r\n\r\n", fails: true, pooled: true},
	{name: "503 close-delimited", reply: "HTTP/1.1 503 Service Unavailable\r\n\r\ntrue", closes: true, fails: true},
	{name: "500 with a body too long to drain", reply: "HTTP/1.1 500 Oops\r\nContent-Length: 5000\r\n\r\n" + strings.Repeat("x", 5000), fails: true},
	{name: "101 is final", reply: "HTTP/1.1 101 Switching Protocols\r\nUpgrade: x\r\n\r\n" + ok + "Content-Length: 4\r\n\r\ntrue", fails: true},
}

// TestFramings sends every reply twice, whole and one byte per segment, and
// holds the verdict, the error and the connection's fate to the table.
func TestFramings(t *testing.T) {
	for _, bytewise := range []bool{false, true} {
		for _, f := range framings {
			name := f.name
			if bytewise {
				name += "/bytewise"
			}
			t.Run(name, func(t *testing.T) {
				srv := serveRaw(t, func(nc net.Conn, br *bufio.Reader) {
					for {
						if _, err := readRequest(br); err != nil {
							return
						}
						if bytewise {
							for i := range f.reply {
								if _, err := io.WriteString(nc, f.reply[i:i+1]); err != nil {
									return
								}
							}
						} else if _, err := io.WriteString(nc, f.reply); err != nil {
							return
						}
						if f.closes {
							return
						}
					}
				})
				c := newTestClient(t, srv.addr())
				c.FailOpen = true
				allow, err := c.Check("k")
				if f.fails {
					if err == nil || !allow {
						t.Fatalf("allow=%v err=%v, want (FailOpen, error)", allow, err)
					}
				} else if err != nil || allow != f.allow {
					t.Fatalf("allow=%v err=%v, want %v", allow, err, f.allow)
				}
				want := 0
				if f.pooled {
					want = 1
				}
				if got := c.idleCount(); got != want {
					t.Fatalf("%d connections pooled, want %d", got, want)
				}
				if !f.pooled {
					return
				}
				// A pooled connection must really be in step with the server.
				allow2, err2 := c.Check("k")
				if allow2 != allow || (err2 == nil) != (err == nil) || srv.accepts.Load() != 1 {
					t.Fatalf("second check on the pooled connection: allow=%v err=%v accepts=%d", allow2, err2, srv.accepts.Load())
				}
			})
		}
	}
}

// TestErrorStatusKeepsConnection: a 500 is an error, but its body is
// drained and the next check travels on the same connection.
func TestErrorStatusKeepsConnection(t *testing.T) {
	srv := serveRaw(t, func(nc net.Conn, br *bufio.Reader) {
		for {
			key, err := readRequest(br)
			if err != nil {
				return
			}
			reply := ok + "Content-Length: 4\r\n\r\ntrue"
			if key == "boom" {
				reply = "HTTP/1.1 500 Internal Server Error\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\nboom\n"
			}
			if _, err := io.WriteString(nc, reply); err != nil {
				return
			}
		}
	})
	c := newTestClient(t, srv.addr())
	if allow, err := c.Check("boom"); err == nil || allow || !strings.Contains(err.Error(), "HTTP 500") {
		t.Fatalf("allow=%v err=%v, want the HTTP 500 surfaced fail-closed", allow, err)
	}
	if allow, err := c.Check("fine"); err != nil || !allow {
		t.Fatalf("check after the 500: allow=%v err=%v", allow, err)
	}
	if n := srv.accepts.Load(); n != 1 {
		t.Fatalf("%d connections, want the one reused", n)
	}
}

// TestStaleKeepAlive: a server that closes every connection after one reply
// without saying so. Each later check finds its pooled connection dead before
// any reply byte and is re-sent once on a fresh one, so every check succeeds
// and no key reaches the server twice.
func TestStaleKeepAlive(t *testing.T) {
	var (
		mu   sync.Mutex
		seen = map[string]int{}
	)
	srv := serveRaw(t, func(nc net.Conn, br *bufio.Reader) {
		key, err := readRequest(br)
		if err != nil {
			return
		}
		mu.Lock()
		seen[key]++
		mu.Unlock()
		io.WriteString(nc, ok+"Content-Length: 4\r\n\r\ntrue")
	})
	c := newTestClient(t, srv.addr())
	const checks = 25
	keys := make([]string, checks)
	for i := range keys {
		keys[i] = "key-" + string(rune('a'+i))
		if allow, err := c.Check(keys[i]); err != nil || !allow {
			t.Fatalf("check %d: allow=%v err=%v", i, allow, err)
		}
	}
	if n := srv.accepts.Load(); n != checks {
		t.Fatalf("%d connections for %d checks, want one dial per check", n, checks)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, k := range keys {
		if seen[k] != 1 {
			t.Fatalf("server saw %q %d times, want once", k, seen[k])
		}
	}
}

// TestFreshConnectionIsNotRetried: the retry is for reused connections only.
// A server that drops a new connection without a word gets the request once.
func TestFreshConnectionIsNotRetried(t *testing.T) {
	srv := serveRaw(t, func(nc net.Conn, br *bufio.Reader) { readRequest(br) })
	c := newTestClient(t, srv.addr())
	if allow, err := c.Check("k"); err == nil || allow {
		t.Fatalf("allow=%v err=%v, want an error", allow, err)
	}
	if n := srv.accepts.Load(); n != 1 {
		t.Fatalf("%d connections, want 1", n)
	}
}

// TestSilentServerTimesOut: a server that accepts, reads and never answers
// costs the caller the budget and no more, and the verdict is FailOpen.
func TestSilentServerTimesOut(t *testing.T) {
	release := make(chan struct{})
	srv := serveRaw(t, func(nc net.Conn, br *bufio.Reader) {
		readRequest(br)
		<-release
	})
	defer close(release)
	for _, failOpen := range []bool{false, true} {
		c := newTestClient(t, srv.addr())
		c.budget = 100 * time.Millisecond
		c.FailOpen = failOpen
		start := time.Now()
		allow, err := c.Check("k")
		elapsed := time.Since(start)
		var ne net.Error
		if allow != failOpen || !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("allow=%v err=%v, want (%v, timeout)", allow, err, failOpen)
		}
		if elapsed < c.budget || elapsed > 20*c.budget {
			t.Fatalf("returned after %v with a budget of %v", elapsed, c.budget)
		}
		if c.idleCount() != 0 {
			t.Fatal("timed-out connection was pooled")
		}
	}
}

// TestLateReplyOnReusedConnectionIsNotRetried: the deadline belongs to the
// check, not to the attempt, so a pooled connection that goes silent does
// not earn a second send.
func TestLateReplyOnReusedConnectionIsNotRetried(t *testing.T) {
	release := make(chan struct{})
	var requests atomic.Int64
	srv := serveRaw(t, func(nc net.Conn, br *bufio.Reader) {
		for {
			if _, err := readRequest(br); err != nil {
				return
			}
			if requests.Add(1) > 1 {
				<-release
				return
			}
			io.WriteString(nc, ok+"Content-Length: 4\r\n\r\ntrue")
		}
	})
	defer close(release)
	c := newTestClient(t, srv.addr())
	c.budget = 100 * time.Millisecond
	if allow, err := c.Check("k"); err != nil || !allow {
		t.Fatalf("warm-up: allow=%v err=%v", allow, err)
	}
	if _, err := c.Check("k"); err == nil {
		t.Fatal("silent server answered")
	}
	if n, r := srv.accepts.Load(), requests.Load(); n != 1 || r != 2 {
		t.Fatalf("%d connections and %d requests, want 1 and 2", n, r)
	}
}

func TestIdleConnectionsExpire(t *testing.T) {
	srv := keepAliveServer(t, nil)
	c := newTestClient(t, srv.addr())
	if _, err := c.Check("k"); err != nil {
		t.Fatal(err)
	}
	// Park the connection again as if its exchange had started longer ago
	// than the idle timeout.
	now := time.Now()
	cn, err := c.pool.Get(now, now.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	c.pool.Put(cn, now.Add(-h1.IdleTimeout-time.Second))
	if allow, err := c.Check("k"); err != nil || !allow {
		t.Fatalf("allow=%v err=%v", allow, err)
	}
	if n := srv.accepts.Load(); n != 2 {
		t.Fatalf("%d connections, want the expired one replaced", n)
	}
	if c.idleCount() != 1 {
		t.Fatalf("%d idle connections, want 1", c.idleCount())
	}
}

// keepAliveServer answers every request on every connection with true.
func keepAliveServer(t testing.TB, gate func()) *rawServer {
	return serveRaw(t, func(nc net.Conn, br *bufio.Reader) {
		for {
			if _, err := readRequest(br); err != nil {
				return
			}
			if gate != nil {
				gate()
			}
			if _, err := io.WriteString(nc, ok+"Content-Length: 4\r\n\r\ntrue"); err != nil {
				return
			}
		}
	})
}

func TestConcurrentChecks(t *testing.T) {
	srv := keepAliveServer(t, nil)
	c := newTestClient(t, srv.addr())
	const workers, each = 64, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if allow, err := c.Check("k"); err != nil || !allow {
					t.Errorf("allow=%v err=%v", allow, err)
					return
				}
				if n := c.idleCount(); n > h1.MaxIdle {
					t.Errorf("%d idle connections", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := srv.accepts.Load(); n > workers {
		t.Fatalf("%d connections for %d workers", n, workers)
	}
}

// TestPoolIsCapped holds h1.MaxIdle+20 checks in flight at once; when they
// are released together the pool keeps h1.MaxIdle connections and closes
// the rest.
func TestPoolIsCapped(t *testing.T) {
	const inFlight = h1.MaxIdle + 20
	var arrived sync.WaitGroup
	arrived.Add(inFlight)
	srv := keepAliveServer(t, func() {
		arrived.Done()
		arrived.Wait()
	})
	c := newTestClient(t, srv.addr())
	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if allow, err := c.Check("k"); err != nil || !allow {
				t.Errorf("allow=%v err=%v", allow, err)
			}
		}()
	}
	wg.Wait()
	if n := c.idleCount(); n != h1.MaxIdle {
		t.Fatalf("%d idle connections, want %d", n, h1.MaxIdle)
	}
}

func TestRequestBytes(t *testing.T) {
	got := string(appendRequest(nil, New("janus.example:8080").tail, "user 42&x", 2.5))
	want := "GET /qos?cost=2.5&key=user+42%26x HTTP/1.1\r\nHost: janus.example:8080\r\n\r\n"
	if got != want {
		t.Fatalf("request = %q, want %q", got, want)
	}
	req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(got)))
	if err != nil || req.URL.Query().Get("key") != "user 42&x" || req.Host != "janus.example:8080" {
		t.Fatalf("net/http reads it as %+v, %v", req, err)
	}
}

// TestCheckAllocPin: on a warmed connection a check allocates nothing. The
// fake allocates nothing either (AllocsPerRun counts the whole process).
func TestCheckAllocPin(t *testing.T) {
	reply := []byte(ok + "X-Janus-Status: ok\r\nDate: Sat, 03 Oct 2026 00:00:00 GMT\r\nContent-Length: 4\r\nContent-Type: text/plain; charset=utf-8\r\n\r\ntrue")
	srv := serveRaw(t, func(nc net.Conn, _ *bufio.Reader) {
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
	c := newTestClient(t, srv.addr())
	check := func() {
		if allow, err := c.Check("user-42"); err != nil || !allow {
			t.Fatalf("allow=%v err=%v", allow, err)
		}
	}
	check() // dial, grow the request buffer and the pool
	if n := testing.AllocsPerRun(200, check); n != 0 {
		t.Fatalf("Check allocates %v times per call on a warmed connection, want 0", n)
	}
	if n := srv.accepts.Load(); n != 1 {
		t.Fatalf("%d connections, want 1", n)
	}
}

// netHTTPSaysTrue is the reference for FuzzClientResponse: what net/http
// makes of the same bytes, skipping interim replies as its Transport does.
func netHTTPSaysTrue(reply []byte) bool {
	br := bufio.NewReader(bytes.NewReader(reply))
	for i := 0; i <= h1.MaxInterim; i++ {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			return false
		}
		if resp.StatusCode/100 == 1 && resp.StatusCode != http.StatusSwitchingProtocols {
			continue
		}
		body, err := io.ReadAll(resp.Body)
		return err == nil && resp.StatusCode == http.StatusOK && strings.TrimSpace(string(body)) == "true"
	}
	return false
}

// FuzzClientResponse: whatever bytes a server sends before closing, the
// client does not panic, returns within its budget, and says TRUE only if
// net/http reading the same bytes finds status 200 and a body that trims to
// "true" — the client's parser may refuse more than net/http's, never less.
func FuzzClientResponse(f *testing.F) {
	for _, fr := range framings {
		f.Add([]byte(fr.reply))
	}
	f.Add([]byte(ok + "Content-Length: 4\r\n\r\ntrueHTTP/1.1 200 OK\r\n"))
	var reply atomic.Pointer[[]byte] // one check is in flight at a time
	srv := serveRaw(f, func(nc net.Conn, br *bufio.Reader) {
		if _, err := readRequest(br); err == nil {
			nc.Write(*reply.Load())
		}
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		reply.Store(&data)
		c := New(srv.addr())
		defer c.closeIdle()
		c.budget = 2 * time.Second
		start := time.Now()
		allow, err := c.Check("k")
		if elapsed := time.Since(start); elapsed > c.budget+time.Second {
			t.Fatalf("check took %v with a budget of %v", elapsed, c.budget)
		}
		if allow && !netHTTPSaysTrue(data) {
			t.Fatalf("client says TRUE (err=%v) to a reply net/http does not read as 200 true: %q", err, data)
		}
	})
}
