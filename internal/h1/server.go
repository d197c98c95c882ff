package h1

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/tcp"
)

const (
	// serverIdle bounds how long a connection waits for its next request.
	// It is above IdleTimeout, so a server never closes a connection that a
	// client's Pool may still pick for a request.
	serverIdle = IdleTimeout + 5*time.Second
	// writeTimeout bounds the write of one reply.
	writeTimeout = 10 * time.Second
	// maxHeaderLines bounds the header lines of one request; each line is
	// bounded by ReadBuffer.
	maxHeaderLines = 100
	// lingerTimeout and lingerBytes bound what a closing connection drains.
	lingerTimeout = 500 * time.Millisecond
	lingerBytes   = 256 << 10
)

var (
	errBadRequest = errors.New("malformed HTTP request")
	errTooLarge   = errors.New("request head too large")
)

// Request is what the server keeps of one request head. The slices are
// valid until the handler returns.
type Request struct {
	Method []byte
	// URI is the request-target in origin form, path and query: as sent, or
	// with the scheme and authority of an absolute-form target cut off.
	URI []byte
	// Trace is the first X-Janus-Trace value (trace.Header), nil when the
	// request has none.
	Trace []byte
	// Body reports a body announced by Content-Length or chunked
	// Transfer-Encoding. The server reads no body: it closes the connection
	// after the reply.
	Body bool
	// Close reports HTTP/1.0 or Connection: close: the server closes the
	// connection after the reply.
	Close bool

	date []byte // the Date value for the reply; see AppendDate
}

// closes reports whether the connection ends after the reply to r.
func (r *Request) closes() bool { return r.Close || r.Body }

// Handler answers one request: it appends the whole reply — status line,
// header lines, blank line and body — to out and returns the result.
// AppendText, or AppendStatusLine, AppendDate and AppendBody, write the
// parts that depend on the request and the connection.
type Handler func(out []byte, req *Request) []byte

// Server serves HTTP/1.1 on a listener (tcp.Serve): one goroutine per
// connection, which reads a request head with readRequest, calls the
// handler, and writes the reply in one Write under a write deadline.
// Requests pipelined on a connection are answered in order.
type Server struct {
	srv     *tcp.Server
	handler Handler
	idle    time.Duration
}

// Serve serves ln with handler until Close.
func Serve(ln net.Listener, handler Handler) *Server {
	return serve(ln, handler, serverIdle)
}

func serve(ln net.Listener, handler Handler, idle time.Duration) *Server {
	s := &Server{handler: handler, idle: idle}
	s.srv = tcp.Serve(ln, s.serveConn)
	return s
}

// serverConn is what a connection keeps between its requests.
type serverConn struct {
	br   *bufio.Reader
	head []byte // the request line's method and URI, then the trace value
	out  []byte // the reply
	date []byte // http.TimeFormat of sec
	sec  int64
}

func (s *Server) serveConn(nc net.Conn) {
	c := &serverConn{br: bufio.NewReaderSize(nc, ReadBuffer)}
	var req Request
	deadline := time.Now().Add(s.idle)
	for {
		if err := nc.SetReadDeadline(deadline); err != nil {
			return
		}
		err := c.readRequest(&req)
		now := time.Now()
		if sec := now.Unix(); sec != c.sec {
			c.date, c.sec = now.UTC().AppendFormat(c.date[:0], http.TimeFormat), sec
		}
		switch err {
		case nil:
			req.date = c.date
			c.out = s.handler(c.out[:0], &req)
		case errTooLarge, errBadRequest:
			code := http.StatusBadRequest
			if err == errTooLarge {
				code = http.StatusRequestHeaderFieldsTooLarge
			}
			req = Request{Close: true, date: c.date}
			c.out = AppendText(c.out[:0], &req, code, "", err.Error()+"\n")
		default:
			return // the client closed the connection or went quiet, or Close ran
		}
		// The handler may have taken a while (the LB waits on a router).
		now = time.Now()
		if err := nc.SetWriteDeadline(now.Add(writeTimeout)); err != nil {
			return
		}
		if _, err := nc.Write(c.out); err != nil {
			return
		}
		if req.closes() {
			linger(nc)
			return
		}
		deadline = now.Add(s.idle)
	}
}

// linger ends a connection the server closes after a reply. Closing a
// socket with unread bytes — a body, a pipelined request — resets it, and a
// reset can destroy the reply before the client has read it; so the server
// half-closes, which sends the reply's FIN, and discards what the client
// still sends, for a moment.
func linger(nc net.Conn) {
	tc, ok := nc.(*net.TCPConn)
	if !ok || tc.CloseWrite() != nil || tc.SetReadDeadline(time.Now().Add(lingerTimeout)) != nil {
		return
	}
	_, _ = io.CopyN(io.Discard, tc, lingerBytes) // ends at EOF, the deadline or the bound
}

// Close stops accepting, closes every connection — a request in progress
// gets no reply — and returns once every connection's goroutine has
// returned.
func (s *Server) Close() error { return s.srv.Close() }

// readRequest reads one request head: the request line and the header
// lines up to the blank line. It is the strict counterpart of readHead and
// accepts nothing http.ReadRequest would refuse (FuzzServeRequest): the
// method a token, one space on each side of the request-target, HTTP/1.0 or
// HTTP/1.1, a target in origin or absolute form (see originForm), no folded
// lines, no space in a field name, no control byte in a field value, one
// Host line at most, Content-Length at most once, Transfer-Encoding only as
// "chunked", only on HTTP/1.1 and never beside Content-Length, and no
// Trailer line. A line longer than ReadBuffer, or more than maxHeaderLines
// header lines, is errTooLarge; anything else refused is errBadRequest.
//
//janus:hotpath
func (c *serverConn) readRequest(req *Request) error {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return requestErr(err)
	}
	line = trimEOL(line)
	sp := bytes.IndexByte(line, ' ')
	if sp <= 0 || !isToken(line[:sp]) {
		return errBadRequest
	}
	method, rest := line[:sp], line[sp+1:]
	sp = bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return errBadRequest
	}
	target, proto := rest[:sp], rest[sp+1:]
	if len(proto) != 8 || string(proto[:7]) != "HTTP/1." || proto[7] != '0' && proto[7] != '1' {
		return errBadRequest
	}
	http10 := proto[7] == '0'
	uri, ok := originForm(target)
	if !ok {
		return errBadRequest
	}
	// The line is copied: the next read may move the buffer under it.
	c.head = append(append(c.head[:0], method...), uri...)
	*req = Request{Method: c.head[:len(method)], URI: c.head[len(method):], Close: http10}
	length, chunked, host := -1, false, false
	for n := 0; ; n++ {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return requestErr(err)
		}
		if line = trimEOL(line); len(line) == 0 {
			break
		}
		if n == maxHeaderLines {
			return errTooLarge
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || !isToken(line[:colon]) || !isFieldValue(line[colon+1:]) {
			return errBadRequest
		}
		name, value := line[:colon], trimOWS(line[colon+1:])
		switch {
		case foldEq(name, "content-length"):
			// Eighteen digits at most: net/http refuses a length over 63 bits.
			if length >= 0 || len(value) > 18 {
				return errBadRequest
			}
			if length, ok = parseDigits(value); !ok {
				return errBadRequest
			}
		case foldEq(name, "transfer-encoding"):
			if chunked || http10 || !foldEq(value, "chunked") {
				return errBadRequest
			}
			chunked = true
		case foldEq(name, "connection"):
			req.Close = req.Close || hasToken(value, "close")
		case foldEq(name, "host"):
			if host {
				return errBadRequest
			}
			host = true
		case foldEq(name, "trailer"):
			return errBadRequest
		case foldEq(name, "x-janus-trace"):
			if req.Trace == nil {
				at := len(c.head)
				c.head = append(c.head, value...)
				req.Trace = c.head[at:]
			}
		}
	}
	if chunked && length >= 0 {
		return errBadRequest
	}
	req.Body = chunked || length > 0
	return nil
}

// requestErr names a head that does not fit the buffer.
//
//janus:hotpath
func requestErr(err error) error {
	if err == bufio.ErrBufferFull {
		return errTooLarge
	}
	return err
}

// originForm returns the origin form of a request-target: the target itself
// when it is in origin form ("/path?query"), or the path and query of one in
// absolute form ("http://host:port/path?query"). It refuses every other
// form, and every target net/url would: one holding a control byte, or a '%'
// in its path that two hex digits do not follow. The authority is narrower
// than net/url's: a host name or IPv4 address and an optional port, without
// user information, escapes or IPv6 literals.
//
//janus:hotpath
func originForm(t []byte) ([]byte, bool) {
	for _, c := range t {
		if c <= ' ' || c == 0x7f {
			return nil, false
		}
	}
	if len(t) == 0 {
		return nil, false
	}
	if t[0] != '/' {
		n := len("http://")
		switch {
		case len(t) > n && foldEq(t[:n], "http://"):
		case len(t) > n+1 && foldEq(t[:n+1], "https://"):
			n++
		default:
			return nil, false
		}
		slash := bytes.IndexByte(t[n:], '/')
		if slash <= 0 || !isAuthority(t[n:n+slash]) {
			return nil, false
		}
		t = t[n+slash:]
	}
	path := t
	if q := bytes.IndexByte(t, '?'); q >= 0 {
		path = t[:q]
	}
	for i, c := range path {
		if c == '%' && (i+2 >= len(path) || !isHex(path[i+1]) || !isHex(path[i+2])) {
			return nil, false
		}
	}
	return t, true
}

// isAuthority reports whether a is a host of letters, digits, '-', '.', '_'
// and '~', followed by an optional ':' and digits.
//
//janus:hotpath
func isAuthority(a []byte) bool {
	host := a
	if colon := bytes.LastIndexByte(a, ':'); colon >= 0 {
		host = a[:colon]
		for _, c := range a[colon+1:] {
			if c < '0' || c > '9' {
				return false
			}
		}
	}
	for _, c := range host {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '-' || c == '.' || c == '_' || c == '~') {
			return false
		}
	}
	return len(host) > 0
}

//janus:hotpath
func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// AppendStatusLine appends the status line of an HTTP/1.1 reply with the
// given three-digit status code.
func AppendStatusLine(out []byte, code int) []byte {
	out = append(out, "HTTP/1.1 "...)
	out = strconv.AppendInt(out, int64(code), 10)
	out = append(out, ' ')
	out = append(out, http.StatusText(code)...)
	return append(out, "\r\n"...)
}

// AppendDate appends a Date line: the time req was read, formatted at most
// once per second on each connection.
func AppendDate(out []byte, req *Request) []byte {
	out = append(out, "Date: "...)
	if req.date != nil {
		out = append(out, req.date...)
	} else {
		out = time.Now().UTC().AppendFormat(out, http.TimeFormat) // a Request built by hand
	}
	return append(out, "\r\n"...)
}

// AppendBody ends the head of a reply to req with status code and appends
// its body: Content-Length, Connection: close when the connection ends after
// this reply, the blank line, then body. A 1xx, 204 or 304 reply gets
// neither Content-Length nor body, and a reply to HEAD no body.
func AppendBody[B ~string | ~[]byte](out []byte, req *Request, code int, body B) []byte {
	bodied := code >= http.StatusOK && code != http.StatusNoContent && code != http.StatusNotModified
	if bodied {
		out = append(out, "Content-Length: "...)
		out = strconv.AppendInt(out, int64(len(body)), 10)
		out = append(out, "\r\n"...)
	}
	if req.closes() {
		out = append(out, "Connection: close\r\n"...)
	}
	out = append(out, "\r\n"...)
	if bodied && string(req.Method) != http.MethodHead {
		out = append(out, body...)
	}
	return out
}

// AppendText appends a whole text/plain reply: the status line, Date,
// Content-Type, head (header lines, each ending in CRLF) and body.
func AppendText(out []byte, req *Request, code int, head, body string) []byte {
	out = AppendStatusLine(out, code)
	out = AppendDate(out, req)
	out = append(out, "Content-Type: text/plain; charset=utf-8\r\n"...)
	out = append(out, head...)
	return AppendBody(out, req, code, body)
}
