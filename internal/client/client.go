// Package client is the Janus QoS client library — the Go equivalent of
// the paper's qos_client.php (§IV). It issues the key-value QoS check
// against a Janus HTTP endpoint (gateway LB or request router) and offers
// an HTTP middleware that mirrors the paper's integration snippet: run the
// check before the wrapped handler, and answer 403 Forbidden when Janus
// says FALSE.
//
// One blocking check in front of every application request is the whole
// integration contract, so what a check costs its caller is Janus's price.
// A check is therefore one plain HTTP/1.1 exchange done in the calling
// goroutine — no net/http client, no helper goroutines, no allocation on
// the success path (pinned by TestCheckAllocPin):
//
//   - Pool. A Client keeps at most maxIdle idle persistent connections on a
//     mutex-guarded LIFO stack, each with its own bufio.Reader and request
//     buffer. A connection idle for longer than idleTimeout is closed when
//     a later check finds it; there is no reaper goroutine.
//   - Exchange. The request is appended into the connection's buffer, one
//     deadline (checkBudget from the start of the call, dial included) is
//     armed, and one Write is followed by reading the reply: the status
//     line, then the header lines, of which only Content-Length,
//     Transfer-Encoding and Connection are interpreted and every other one
//     is checked for syntax and skipped whatever its length, then a body of
//     at most maxBody bytes handed to wire.ParseHTTPBody.
//   - Framing. Every framing a compliant server may choose for this reply
//     is accepted: Content-Length, chunked (decoded by
//     net/http/httputil; trailer fields are refused), and close-delimited
//     (HTTP/1.0, or neither header), whose answer is used and whose
//     connection is not pooled, as after "Connection: close". Interim 1xx
//     replies are skipped. A non-200 status is an error, returned after
//     the body has been drained so that the connection survives. Anything
//     malformed, ambiguous (both length headers, a repeated one, a folded
//     line), oversized or late closes the connection and yields
//     (FailOpen, err). The parser accepts nothing net/http's would reject
//     (FuzzClientResponse holds it to http.ReadResponse).
//   - Retry. net/http's rule, exactly: a check is sent a second time, on a
//     fresh connection, only when a reused connection failed before the
//     first byte of a reply — the server closed an idle keep-alive
//     connection while the request was in flight. If the first copy was
//     served after all, the retry spends the key's credit twice; that errs
//     toward deny and keeps admitted ≤ C + r·t, so it is safe for
//     admission.
//   - No fallback. A reply is only found unrecognisable after the request
//     is on the wire and has spent its credit, so re-issuing it through a
//     second HTTP stack would spend it twice. One parser that handles all
//     three framings is both the simpler and the correct design.
package client

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"os"
	"sync"
	"time"

	"repro/internal/wire"
)

const (
	// checkBudget bounds one check from first to last byte, dial and retry
	// included.
	checkBudget = 5 * time.Second
	// maxIdle and idleTimeout bound the pool of idle connections.
	maxIdle     = 256
	idleTimeout = 30 * time.Second
	// maxBody is the longest reply body accepted: "false" plus slack for
	// surrounding white space.
	maxBody = 64
	// readBuffer sizes each connection's bufio.Reader. It is also the most
	// a non-200 reply's body may hold for its connection to be drained and
	// kept rather than closed.
	readBuffer = 4096
	// maxInterim is net/http's bound on 1xx replies before the final one.
	maxInterim = 5
)

// Client checks admission against one Janus endpoint. It is safe for
// concurrent use; each concurrent check holds a connection of its own.
type Client struct {
	endpoint string
	// tail is everything in a request after the request-URI.
	tail string
	// budget is checkBudget; in-package tests shorten it.
	budget time.Duration

	mu   sync.Mutex
	idle []*conn // LIFO: the most recently used connection is on top

	// FailOpen selects the verdict when Janus itself is unreachable.
	FailOpen bool
}

// conn is one persistent connection and the buffers that stay with it.
type conn struct {
	nc     net.Conn
	br     *bufio.Reader
	req    []byte    // the request bytes, rebuilt in place for every check
	parked time.Time // start of the check after which the connection went idle
	reused bool      // taken from the pool rather than dialled for this check
}

// New creates a client for a Janus HTTP endpoint ("host:port").
func New(endpoint string) *Client {
	return &Client{
		endpoint: endpoint,
		tail:     " HTTP/1.1\r\nHost: " + endpoint + "\r\n\r\n",
		budget:   checkBudget,
	}
}

// Check performs qos_check(key): TRUE admits, FALSE throttles.
func (c *Client) Check(key string) (bool, error) {
	return c.CheckCost(key, 1)
}

// CheckCost performs a weighted check consuming cost credits.
func (c *Client) CheckCost(key string, cost float64) (bool, error) {
	now := time.Now()
	deadline := now.Add(c.budget)
	cn := c.take(now)
	if cn == nil {
		var err error
		if cn, err = c.dial(deadline); err != nil {
			return c.FailOpen, fmt.Errorf("client: qos check: %w", err)
		}
	}
	allow, end, err := cn.exchange(c.tail, deadline, key, cost)
	if end == unanswered && cn.reused && !errors.Is(err, os.ErrDeadlineExceeded) {
		// The server closed the idle connection under the request.
		_ = cn.nc.Close() // already dead
		if cn, err = c.dial(deadline); err != nil {
			return c.FailOpen, fmt.Errorf("client: qos check: %w", err)
		}
		allow, end, err = cn.exchange(c.tail, deadline, key, cost)
	}
	if end == reusable {
		c.park(cn, now)
	} else {
		_ = cn.nc.Close() // the exchange's own error is the one worth reporting
	}
	if err != nil {
		return c.FailOpen, fmt.Errorf("client: qos check: %w", err)
	}
	return allow, nil
}

// take pops the most recently parked connection, or returns nil when the
// pool has none that is fresh enough.
func (c *Client) take(now time.Time) *conn {
	c.mu.Lock()
	n := len(c.idle)
	if n == 0 {
		c.mu.Unlock()
		return nil
	}
	cn := c.idle[n-1]
	if now.Sub(cn.parked) <= idleTimeout {
		c.idle[n-1] = nil
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		cn.reused = true
		return cn
	}
	// The top of a LIFO stack idled least, so every connection has expired.
	stale := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, cn := range stale {
		_ = cn.nc.Close() // the server has most likely closed its end already
	}
	return nil
}

// park returns a connection to the pool, or closes it when the pool is full.
func (c *Client) park(cn *conn, now time.Time) {
	cn.parked = now
	c.mu.Lock()
	if len(c.idle) < maxIdle {
		c.idle = append(c.idle, cn)
		cn = nil
	}
	c.mu.Unlock()
	if cn != nil {
		_ = cn.nc.Close() // surplus connection; nothing is in flight on it
	}
}

func (c *Client) dial(deadline time.Time) (*conn, error) {
	d := net.Dialer{Deadline: deadline}
	nc, err := d.Dial("tcp", c.endpoint)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, readBuffer)}, nil
}

// fate is what an exchange leaves of its connection.
type fate uint8

const (
	// broken: close it. Also the fate of a sound connection that the server
	// will close (HTTP/1.0, Connection: close, a close-delimited body).
	broken fate = iota
	// unanswered: close it; the exchange failed before the first byte of a
	// reply, the one failure after which a reused connection is retried.
	unanswered
	// reusable: the reply was read to its end and the server keeps the
	// connection open.
	reusable
)

var (
	errMalformed = errors.New("malformed HTTP reply")
	errOversized = errors.New("reply body too long")
	errInterim   = errors.New("too many 1xx replies")
)

// exchange sends one check on cn and reads its reply. tail is the request
// after its request-URI.
func (cn *conn) exchange(tail string, deadline time.Time, key string, cost float64) (bool, fate, error) {
	cn.req = appendRequest(cn.req[:0], tail, key, cost)
	if err := cn.nc.SetDeadline(deadline); err != nil {
		return false, broken, err
	}
	if n, err := cn.nc.Write(cn.req); err != nil {
		if n == 0 {
			return false, unanswered, err
		}
		return false, broken, err
	}
	if _, err := cn.br.Peek(1); err != nil {
		return false, unanswered, err
	}
	h, err := readHead(cn.br)
	for n := 0; err == nil && h.interim(); n++ {
		if n == maxInterim {
			return false, broken, errInterim
		}
		h, err = readHead(cn.br)
	}
	if err != nil {
		return false, broken, err
	}
	if h.status != http.StatusOK {
		// Drain a body whose end is known, so that the connection survives.
		after := broken
		if h.delimited() {
			if _, err := readBody(cn.br, h, readBuffer); err == nil {
				after = cn.settled(h)
			}
		}
		return false, after, fmt.Errorf("HTTP %d", h.status)
	}
	body, err := readBody(cn.br, h, maxBody)
	if err != nil {
		return false, broken, err
	}
	allow, err := parseBody(body)
	return allow, cn.settled(h), err
}

// settled is the fate of a connection whose reply has been read to its end.
func (cn *conn) settled(h head) fate {
	if h.close || !h.delimited() || cn.br.Buffered() > 0 {
		return broken
	}
	return reusable
}

// appendRequest appends the whole request for one check to dst.
//
//janus:hotpath
func appendRequest(dst []byte, tail, key string, cost float64) []byte {
	dst = append(dst, "GET "...)
	dst = wire.AppendHTTPQuery(dst, wire.Request{Key: key, Cost: cost})
	return append(dst, tail...)
}

// head is what the client keeps of a reply's status line and header lines.
type head struct {
	status  int
	length  int  // Content-Length; -1 when the header is absent
	chunked bool // Transfer-Encoding: chunked
	close   bool // HTTP/1.0 or Connection: close: the server will not reuse the connection
}

// interim reports a 1xx reply that another reply follows. 101 is final, as
// in net/http: after it the connection no longer speaks HTTP.
func (h head) interim() bool {
	return h.status/100 == 1 && h.status != http.StatusSwitchingProtocols
}

// delimited reports whether the body's end can be told without the server
// closing the connection.
func (h head) delimited() bool { return h.chunked || h.length >= 0 }

// readHead reads one status line and its header lines up to the blank line.
// It is deliberately narrower than net/http's parser — one space after the
// version, no folded lines, no space in a field name, each length header at
// most once and never both — so that every head it accepts means the same
// thing to any HTTP/1.1 implementation.
//
//janus:hotpath
func readHead(br *bufio.Reader) (head, error) {
	h := head{length: -1}
	line, err := br.ReadSlice('\n')
	if err != nil {
		return h, headErr(err)
	}
	// "HTTP/1.x SSS" and, optionally, a space and a reason phrase.
	line = trimEOL(line)
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || line[8] != ' ' || (len(line) > 12 && line[12] != ' ') {
		return h, errMalformed
	}
	http10 := line[7] == '0'
	if !http10 && line[7] != '1' {
		return h, errMalformed
	}
	h.close = http10
	var ok bool
	if h.status, ok = parseDigits(line[9:12]); !ok {
		return h, errMalformed
	}
	for {
		line, err := br.ReadSlice('\n')
		whole := err == nil
		if !whole && err != bufio.ErrBufferFull {
			return h, headErr(err)
		}
		if whole {
			if line = trimEOL(line); len(line) == 0 {
				break
			}
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || !isToken(line[:colon]) {
			return h, errMalformed
		}
		name, value := line[:colon], line[colon+1:]
		if !whole {
			// A line longer than the buffer (a trace span list, say) is
			// skipped piece by piece; a framing header that long is not one.
			if foldEq(name, "content-length") || foldEq(name, "transfer-encoding") || foldEq(name, "connection") {
				return h, errMalformed
			}
			if err := skipLine(br, value); err != nil {
				return h, err
			}
			continue
		}
		if !isFieldValue(value) {
			return h, errMalformed
		}
		value = trimOWS(value)
		switch {
		case foldEq(name, "content-length"):
			if h.length >= 0 {
				return h, errMalformed
			}
			if h.length, ok = parseDigits(value); !ok {
				return h, errMalformed
			}
		case foldEq(name, "transfer-encoding"):
			if h.chunked || !foldEq(value, "chunked") {
				return h, errMalformed
			}
			h.chunked = true
		case foldEq(name, "connection"):
			h.close = h.close || hasToken(value, "close")
		}
	}
	if h.chunked && (h.length >= 0 || http10) {
		return h, errMalformed
	}
	if h.status == http.StatusNoContent || h.status == http.StatusNotModified {
		h.length, h.chunked = 0, false // these never carry a body
	}
	return h, nil
}

// headErr names the two ways a head ends early.
//
//janus:hotpath
func headErr(err error) error {
	switch err {
	case io.EOF:
		return io.ErrUnexpectedEOF
	case bufio.ErrBufferFull:
		return errMalformed
	}
	return err
}

// skipLine checks and discards the rest of a header line whose first piece,
// frag, filled the buffer without reaching the line's end.
//
//janus:hotpath
func skipLine(br *bufio.Reader, frag []byte) error {
	for {
		// A CR that ends a piece may be half of the line's CRLF; anywhere
		// else in a field value it is an error.
		cr := len(frag) > 0 && frag[len(frag)-1] == '\r'
		if cr {
			frag = frag[:len(frag)-1]
		}
		if !isFieldValue(frag) {
			return errMalformed
		}
		next, err := br.ReadSlice('\n')
		if err != nil && err != bufio.ErrBufferFull {
			return headErr(err)
		}
		switch {
		case cr && (err != nil || len(next) != 1):
			return errMalformed
		case cr:
			return nil
		case err == nil:
			if !isFieldValue(trimEOL(next)) {
				return errMalformed
			}
			return nil
		}
		frag = next
	}
}

// readBody reads the body that h announces, at most limit bytes of it. The
// slice it returns is valid until the next read from br.
func readBody(br *bufio.Reader, h head, limit int) ([]byte, error) {
	var r io.Reader = br // close-delimited: the body is all that follows
	switch {
	case h.chunked:
		r = httputil.NewChunkedReader(br)
	case h.length >= 0:
		if h.length > limit {
			return nil, errOversized
		}
		body, err := br.Peek(h.length)
		if err != nil {
			return nil, headErr(err)
		}
		_, err = br.Discard(h.length)
		return body, err
	}
	// The two framings no Janus tier chooses; this path may allocate.
	buf := make([]byte, limit+1)
	n, err := io.ReadFull(r, buf)
	switch err {
	case nil:
		return nil, errOversized
	case io.EOF, io.ErrUnexpectedEOF:
	default:
		return nil, err
	}
	if h.chunked {
		// The chunked reader stops after the last chunk. What must follow is
		// the empty line that ends an empty trailer section.
		if end, err := br.Peek(2); err != nil {
			return nil, headErr(err)
		} else if string(end) != "\r\n" {
			return nil, errMalformed
		}
		if _, err := br.Discard(2); err != nil {
			return nil, err
		}
	}
	return buf[:n], nil
}

// parseBody is wire.ParseHTTPBody without the conversion to a string on the
// two answers that matter.
func parseBody(body []byte) (bool, error) {
	switch trimmed := bytes.TrimSpace(body); {
	case string(trimmed) == wire.BodyAllow:
		return true, nil
	case string(trimmed) == wire.BodyDeny:
		return false, nil
	}
	return wire.ParseHTTPBody(string(body))
}

// trimEOL strips the LF that ended line and the CR before it, if any.
//
//janus:hotpath
func trimEOL(line []byte) []byte {
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// trimOWS strips optional white space (SP, HTAB) from both ends of a field
// value.
//
//janus:hotpath
func trimOWS(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// parseDigits reads b as a decimal number of one or more digits, saturating
// far above any length this client accepts.
//
//janus:hotpath
func parseDigits(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n < 1<<30 {
			n = n*10 + int(c-'0')
		}
	}
	return n, true
}

// tokenByte marks the bytes RFC 9110 allows in a field name.
var tokenByte = func() (t [256]bool) {
	for _, c := range []byte("!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ") {
		t[c] = true
	}
	return t
}()

//janus:hotpath
func isToken(b []byte) bool {
	for _, c := range b {
		if !tokenByte[c] {
			return false
		}
	}
	return true
}

// isFieldValue reports whether b holds no control byte other than HTAB —
// what net/textproto demands of a field value.
//
//janus:hotpath
func isFieldValue(b []byte) bool {
	for _, c := range b {
		if c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

// foldEq reports whether b equals lower, an all-lower-case ASCII string,
// ignoring ASCII case.
//
//janus:hotpath
func foldEq(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c |= 0x20
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// hasToken reports whether the comma-separated list v holds the token lower.
//
//janus:hotpath
func hasToken(v []byte, lower string) bool {
	for len(v) > 0 {
		tok := v
		if i := bytes.IndexByte(v, ','); i >= 0 {
			tok, v = v[:i], v[i+1:]
		} else {
			v = nil
		}
		if foldEq(trimOWS(tok), lower) {
			return true
		}
	}
	return false
}

// KeyFunc extracts the QoS key from a request. The paper's examples: the
// client IP for anonymous browsing, the username for account quotas, the
// User-Agent for crawler policies, or user+database for NoSQL services.
type KeyFunc func(*http.Request) string

// ByRemoteIP keys on the client IP address ($_SERVER['REMOTE_ADDR']).
func ByRemoteIP(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// ByUserAgent keys on the User-Agent header (the search-crawler use case).
func ByUserAgent(r *http.Request) string { return r.Header.Get("User-Agent") }

// ByHeader keys on an arbitrary header (e.g. an API token).
func ByHeader(name string) KeyFunc {
	return func(r *http.Request) string { return r.Header.Get(name) }
}

// ThrottledBody is the response body sent with 403 replies.
const ThrottledBody = "Throttled by Janus QoS\n"

// Wrap guards an HTTP handler with an admission check — the Go rendering
// of the paper's PHP wrapper:
//
//	$qos = qos_check($key);
//	if ($qos) { include("original_index.php"); }
//	else      { header("HTTP/1.1 403 Forbidden"); }
func (c *Client) Wrap(key KeyFunc, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ok, _ := c.Check(key(r)) // unreachable Janus falls back to FailOpen
		if !ok {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(http.StatusForbidden)
			io.WriteString(w, ThrottledBody)
			return
		}
		next.ServeHTTP(w, r)
	})
}
