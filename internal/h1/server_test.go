package h1

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// The tests in this file drive the server from a raw TCP client: what is
// under test is the server's own request reader and connection handling, so
// the bytes of every request are chosen here and not by net/http.

// echo answers a request with a body 400, and any other with 200 and its
// method, URI and trace value.
func echo(out []byte, req *Request) []byte {
	if req.Body {
		return AppendText(out, req, http.StatusBadRequest, "", "body\n")
	}
	return AppendText(out, req, http.StatusOK, "", string(req.Method)+" "+string(req.URI)+" "+string(req.Trace))
}

func startServer(t testing.TB, idle time.Duration) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := serve(ln, echo, idle)
	t.Cleanup(func() { s.Close() })
	return s
}

// served is one request stream and what the server makes of it.
type served struct {
	name    string
	request string
	// replies are the "status body" of each reply, in order.
	replies []string
	// closes: the server closes the connection after the replies.
	closes bool
}

const (
	get = "GET /a HTTP/1.1\r\nHost: h\r\n\r\n"
	bad = "400 malformed HTTP request\n"
	big = "431 request head too large\n"
)

var servedCases = []served{
	{name: "one request", request: get, replies: []string{"200 GET /a "}},
	{name: "pipelined", request: "GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\nGET /3?x=y HTTP/1.1\r\n\r\n", replies: []string{"200 GET /1 ", "200 GET /2 ", "200 GET /3?x=y "}},
	{name: "HTTP/1.0", request: "GET /a HTTP/1.0\r\n\r\n", replies: []string{"200 GET /a "}, closes: true},
	{name: "HTTP/1.0 keep-alive", request: "GET /a HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", replies: []string{"200 GET /a "}, closes: true},
	{name: "connection close", request: "GET /a HTTP/1.1\r\nConnection: close\r\n\r\n" + get, replies: []string{"200 GET /a "}, closes: true},
	{name: "connection close in a list", request: "GET /a HTTP/1.1\r\nConnection: keep-alive , CLOSE\r\n\r\n", replies: []string{"200 GET /a "}, closes: true},
	{name: "absolute form", request: "GET http://Example.com:8080/qos?key=k HTTP/1.1\r\nHost: x\r\n\r\n", replies: []string{"200 GET /qos?key=k "}},
	{name: "absolute form https", request: "GET HTTPS://h/ HTTP/1.1\r\n\r\n", replies: []string{"200 GET / "}},
	{name: "trace", request: "GET /a HTTP/1.1\r\nx-janus-trace: \t00ab \r\nX-Janus-Trace: ff\r\n\r\n", replies: []string{"200 GET /a 00ab"}},
	{name: "bare LF line ends", request: "GET /a HTTP/1.1\nHost: h\n\n", replies: []string{"200 GET /a "}},
	{name: "unvalidated query", request: "GET /a?b=%zz HTTP/1.1\r\n\r\n", replies: []string{"200 GET /a?b=%zz "}},
	{name: "no body at length 0", request: "POST /a HTTP/1.1\r\nContent-Length: 000\r\n\r\n" + get, replies: []string{"200 POST /a ", "200 GET /a "}},
	{name: "request line filling the buffer", request: "GET /" + strings.Repeat("a", ReadBuffer-len("GET / HTTP/1.1\r\n")) + " HTTP/1.1\r\n\r\n",
		replies: []string{"200 GET /" + strings.Repeat("a", ReadBuffer-len("GET / HTTP/1.1\r\n")) + " "}},
	{name: "request line over the buffer", request: "GET /" + strings.Repeat("a", ReadBuffer) + " HTTP/1.1\r\n\r\n", replies: []string{big}, closes: true},
	{name: "header line over the buffer", request: "GET /a HTTP/1.1\r\nX-Pad: " + strings.Repeat("p", ReadBuffer) + "\r\n\r\n", replies: []string{big}, closes: true},
	{name: "100 header lines", request: "GET /a HTTP/1.1\r\n" + strings.Repeat("X: 1\r\n", maxHeaderLines) + "\r\n", replies: []string{"200 GET /a "}},
	{name: "101 header lines", request: "GET /a HTTP/1.1\r\n" + strings.Repeat("X: 1\r\n", maxHeaderLines+1) + "\r\n", replies: []string{big}, closes: true},
	{name: "content-length body", request: "POST /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello" + get, replies: []string{"400 body\n"}, closes: true},
	{name: "chunked body", request: "GET /a HTTP/1.1\r\nTransfer-Encoding: Chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", replies: []string{"400 body\n"}, closes: true},
	{name: "HTTP/1.2", request: "GET /a HTTP/1.2\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "lower-case version", request: "GET /a http/1.1\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "no target", request: "GET HTTP/1.1\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "two spaces", request: "GET  /a HTTP/1.1\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "method not a token", request: "G(T /a HTTP/1.1\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "leading empty line", request: "\r\n" + get, replies: []string{bad}, closes: true},
	{name: "bad escape in path", request: "GET /a%zz HTTP/1.1\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "control byte in target", request: "GET /a\x01 HTTP/1.1\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "asterisk form", request: "OPTIONS * HTTP/1.1\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "authority form", request: "CONNECT h:443 HTTP/1.1\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "user information", request: "GET http://u@h/a HTTP/1.1\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "absolute form without a path", request: "GET http://h HTTP/1.1\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "folded header line", request: "GET /a HTTP/1.1\r\nX: 1\r\n 2\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "space before the colon", request: "GET /a HTTP/1.1\r\nHost : h\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "header without colon", request: "GET /a HTTP/1.1\r\nHost h\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "control byte in a value", request: "GET /a HTTP/1.1\r\nX: a\x00b\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "two Host lines", request: "GET /a HTTP/1.1\r\nHost: a\r\nhost: a\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "two lengths", request: "GET /a HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "signed length", request: "GET /a HTTP/1.1\r\nContent-Length: +1\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "19-digit length", request: "GET /a HTTP/1.1\r\nContent-Length: 0000000000000000000\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "length and chunked", request: "GET /a HTTP/1.1\r\nContent-Length: 1\r\nTransfer-Encoding: chunked\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "unknown coding", request: "GET /a HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "chunked on HTTP/1.0", request: "GET /a HTTP/1.0\r\nTransfer-Encoding: chunked\r\n\r\n", replies: []string{bad}, closes: true},
	{name: "trailer", request: "GET /a HTTP/1.1\r\nTrailer: X\r\n\r\n", replies: []string{bad}, closes: true},
}

// TestServe sends every request stream twice, whole and one byte per
// segment, and holds the replies and the connection's fate to the table. A
// connection that stays open must really be in step: it answers one more
// request.
func TestServe(t *testing.T) {
	for _, bytewise := range []bool{false, true} {
		for _, c := range servedCases {
			name := c.name
			if bytewise {
				name += "/bytewise"
			}
			t.Run(name, func(t *testing.T) {
				s := startServer(t, serverIdle)
				nc, err := net.Dial("tcp", s.srv.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer nc.Close()
				if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
					t.Fatal(err)
				}
				// The server may close before the last byte; the replies tell.
				if bytewise {
					for i := range c.request {
						if _, err := io.WriteString(nc, c.request[i:i+1]); err != nil {
							break
						}
					}
				} else {
					_, _ = io.WriteString(nc, c.request)
				}
				br := bufio.NewReader(nc)
				for _, want := range c.replies {
					if got := readServed(t, br); got != want {
						t.Fatalf("reply %q, want %q", got, want)
					}
				}
				if c.closes {
					if _, err := br.ReadByte(); err != io.EOF {
						t.Fatalf("after the replies: %v, want the connection closed", err)
					}
					return
				}
				if _, err := io.WriteString(nc, "GET /again HTTP/1.1\r\n\r\n"); err != nil {
					t.Fatal(err)
				}
				if got := readServed(t, br); got != "200 GET /again " {
					t.Fatalf("next reply %q", got)
				}
			})
		}
	}
}

// readServed reads one reply as net/http does, checks the framing the
// server owes every reply, and returns its "status body".
func readServed(t *testing.T, br *bufio.Reader) string {
	t.Helper()
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("reading a reply: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading a body: %v", err)
	}
	if len(resp.Header["Date"]) != 1 || resp.ContentLength != int64(len(body)) || resp.TransferEncoding != nil {
		t.Fatalf("reply framed with Date %q, Content-Length %d, Transfer-Encoding %q", resp.Header["Date"], resp.ContentLength, resp.TransferEncoding)
	}
	return resp.Status[:3] + " " + string(body)
}

// TestIdleConnectionClosed: a connection with no request in progress is
// closed after the server's idle bound, counted from its last request, and
// not before.
func TestIdleConnectionClosed(t *testing.T) {
	const idle = 200 * time.Millisecond
	s := startServer(t, idle)
	for _, request := range []string{"", get} {
		nc, err := net.Dial("tcp", s.srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		_, _ = io.WriteString(nc, request)
		br := bufio.NewReader(nc)
		if request != "" {
			readServed(t, br)
		}
		start := time.Now()
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("%v, want the idle connection closed", err)
		}
		if waited := time.Since(start); waited < idle/2 {
			t.Fatalf("closed after %v with an idle bound of %v", waited, idle)
		}
	}
}

func TestServerIdleOutlastsPool(t *testing.T) {
	if serverIdle <= IdleTimeout {
		t.Fatalf("server idle bound %v, pool idle bound %v: the server may close a connection a client still picks", serverIdle, IdleTimeout)
	}
}

// countingListener counts the connections the server accepts and the bytes
// it reads from them.
type countingListener struct {
	net.Listener
	accepted, read atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted.Add(1)
	return &countingConn{Conn: nc, read: &l.read}, nil
}

type countingConn struct {
	net.Conn
	read *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// TestCloseEndsConnections: Close closes a connection idle after a reply, one
// in the middle of a request head and one that has sent nothing, and returns
// with no goroutine of the server's left.
func TestCloseEndsConnections(t *testing.T) {
	before := runtime.NumGoroutine()
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: tl}
	s := Serve(ln, echo)
	const partial = "GET /a HTTP/1.1\r\nHo"
	var readers []*bufio.Reader
	for _, request := range []string{get, partial, ""} {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		_, _ = io.WriteString(nc, request)
		br := bufio.NewReader(nc)
		if request == get {
			readServed(t, br)
		}
		readers = append(readers, br)
	}
	// Wait until the server has accepted all three connections and read
	// every byte sent: closing a socket with unread bytes resets it, and the
	// test wants each connection to see a plain close.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		n := ln.accepted.Load()
		read := ln.read.Load()
		if n == int64(len(readers)) && read == int64(len(get)+len(partial)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server accepted %d connections and has read %d bytes, want %d and %d", n, read, len(readers), len(get)+len(partial))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, br := range readers {
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("connection %d after Close: %v, want it closed", i, err)
		}
	}
	// Close has joined every goroutine; they may take a moment to exit.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Serve", runtime.NumGoroutine(), before)
		}
	}
}

// TestServeAllocPin: on a held connection the server loop, head reader
// included, allocates nothing beyond what the handler does. The client
// allocates nothing either (AllocsPerRun counts the whole process).
func TestServeAllocPin(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, func(out []byte, req *Request) []byte {
		out = AppendStatusLine(out, http.StatusOK)
		out = AppendDate(out, req)
		return AppendBody(out, req, http.StatusOK, "true")
	})
	defer s.Close()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	request := []byte("GET /qos?key=user-42 HTTP/1.1\r\nHost: h\r\nX-Janus-Trace: 00000000000000ab\r\n\r\n")
	buf := make([]byte, 1024)
	exchange := func() {
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
	exchange() // grow the connection's buffers
	if n := testing.AllocsPerRun(200, exchange); n != 0 {
		t.Fatalf("the server allocates %v times per request, want 0", n)
	}
}

// FuzzServeRequest: on any byte stream, the request reader accepts no head
// that http.ReadRequest refuses, and for every head it accepts, in turn,
// agrees with net/http on the method, the request-URI, whether a body
// follows, whether the connection closes after the reply, and the
// X-Janus-Trace value — and stops where net/http stops.
func FuzzServeRequest(f *testing.F) {
	for _, c := range servedCases {
		f.Add([]byte(c.request))
	}
	f.Add([]byte("GET http://a.b:/x%41?%zz HTTP/1.1\r\nx-janus-trace:\r\nConnection: Upgrade, close\r\n\r\n"))
	f.Add([]byte("DELETE //x HTTP/1.0\r\nContent-Length: 3\r\n\r\nabc"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ours, ref := bytes.NewReader(data), bytes.NewReader(data)
		c := &serverConn{br: bufio.NewReaderSize(ours, ReadBuffer)}
		rbr := bufio.NewReader(ref)
		for {
			var req Request
			if err := c.readRequest(&req); err != nil {
				return
			}
			want, err := http.ReadRequest(rbr)
			if err != nil {
				t.Fatalf("accepted a head net/http refuses (%v): %q", err, data)
			}
			uri, wantURI := string(req.URI), want.RequestURI
			if uri != wantURI && !(want.URL.IsAbs() && strings.HasSuffix(wantURI, uri) &&
				strings.EqualFold(wantURI[:len(wantURI)-len(uri)], want.URL.Scheme+"://"+want.URL.Host)) {
				t.Fatalf("URI %q, net/http reads %q: %q", uri, wantURI, data)
			}
			if string(req.Method) != want.Method || req.Body != (want.ContentLength != 0) ||
				req.Close != (want.Close || !want.ProtoAtLeast(1, 1)) || string(req.Trace) != want.Header.Get(trace.Header) {
				t.Fatalf("read %q %q body=%v close=%v trace=%q; net/http reads %q %q body=%v close=%v proto=%s trace=%q: %q",
					req.Method, req.URI, req.Body, req.Close, req.Trace,
					want.Method, want.RequestURI, want.ContentLength != 0, want.Close, want.Proto, want.Header.Get(trace.Header), data)
			}
			if at, wantAt := len(data)-ours.Len()-c.br.Buffered(), len(data)-ref.Len()-rbr.Buffered(); at != wantAt {
				t.Fatalf("head ends at byte %d, net/http's at %d: %q", at, wantAt, data)
			}
			if req.Body || req.Close {
				return
			}
		}
	})
}
