// Package h1 is the plain HTTP/1.1 both sides of every check-path hop share.
// Its client side is what the QoS client (internal/client) and the gateway
// load balancer's router leg (internal/lb) use; its server side is what the
// request router (internal/router) and the load balancer's accept side
// serve with. Neither side uses net/http's client or server: no helper
// goroutines, no header maps, no allocation on the success path of a
// Content-Length exchange.
//
//   - Pool. A Pool keeps at most MaxIdle idle connections to one address on
//     a mutex-guarded LIFO stack, each with its own bufio.Reader and request
//     buffer. A connection idle for longer than IdleTimeout is closed when a
//     later Get finds it; there is no reaper goroutine. Close closes the
//     idle connections at once, and every connection Put after it.
//   - Exchange. Get takes or dials a connection, the caller appends its
//     request to Conn.Req, Send arms the caller's one deadline (the dial's
//     too), writes the request in one Write and reads the reply's head, and
//     Body reads the body. Put parks the connection when its reply was read
//     to its end and the server keeps it open, and closes it otherwise.
//   - Retry. net/http's rule, exactly: a request is sent a second time, on a
//     fresh connection to the same server, only when a reused connection
//     failed before the first byte of a reply — the server closed an idle
//     keep-alive connection while the request was in flight. If the first
//     copy was served after all, a QoS check spends its key's credit twice;
//     that errs toward deny and keeps admitted ≤ C + r·t.
//   - Reader. See readHead and Body: every framing a compliant server may
//     choose (Content-Length, chunked, close-delimited), 1xx replies
//     skipped, and anything malformed, ambiguous, oversized or late refused
//     with the connection closed. The reader accepts nothing net/http's
//     would reject; FuzzClientResponse (internal/client) and FuzzLBRelay
//     (internal/lb) hold it to http.ReadResponse.
//   - Sink. A caller that relays the reply passes a Sink, which receives
//     the final reply's status and its end-to-end header lines: every line
//     but the framing ones (Content-Length, Transfer-Encoding), which the
//     relay writes anew, and Connection, Keep-Alive and Trailer. A line
//     longer than the read buffer is assembled whole for it, up to 64 KiB;
//     without a sink such a line is checked and skipped piece by piece.
//   - Server. Serve runs one goroutine per accepted connection, joined by
//     Close, with a bufio.Reader of ReadBuffer bytes. readRequest, the strict
//     counterpart of readHead, reads a request head; FuzzServeRequest holds it
//     to http.ReadRequest. A line over ReadBuffer or more than 100 header
//     lines is answered 431, anything else malformed 400, and the connection
//     closed. The Handler appends the whole reply to a buffer the connection
//     keeps, and the server writes it in one Write under a write deadline.
//     A request announcing a body, HTTP/1.0 or Connection: close ends the
//     connection after its reply; the server reads no bodies. An idle
//     connection is closed after serverIdle, which is longer than
//     IdleTimeout.
package h1

import (
	"bufio"
	"errors"
	"net"
	"os"
	"sync"
	"time"
)

const (
	// MaxIdle and IdleTimeout bound a pool's idle connections.
	MaxIdle     = 256
	IdleTimeout = 30 * time.Second
	// ReadBuffer sizes each connection's bufio.Reader, and with it the
	// longest Content-Length body Body can return.
	ReadBuffer = 4096
	// MaxInterim is net/http's bound on 1xx replies before the final one.
	MaxInterim = 5
	// maxLine bounds a header line assembled whole for a Sink.
	maxLine = 64 << 10
)

// Sink receives a final reply's status code, then its end-to-end header
// lines, name and value as read (the value without surrounding white space).
// Both slices are valid only for the duration of the call.
type Sink interface {
	Status(code int)
	Header(name, value []byte)
}

// Pool holds the idle persistent connections to one HTTP/1.1 server. It is
// safe for concurrent use; each exchange holds a connection of its own.
type Pool struct {
	addr string

	mu     sync.Mutex
	idle   []*Conn // LIFO: the most recently used connection is on top
	closed bool
}

// NewPool returns an empty pool of connections to addr ("host:port").
func NewPool(addr string) *Pool { return &Pool{addr: addr} }

// Conn is one persistent connection and the buffers that stay with it.
type Conn struct {
	nc net.Conn
	br *bufio.Reader
	// Req holds the request; the caller rebuilds it in place before Send.
	Req    []byte
	line   []byte    // a long header line assembled for a Sink
	head   Head      // the head of the reply Send read last
	done   bool      // that reply's body was read to its end
	parked time.Time // start of the exchange after which the connection went idle
	reused bool      // taken from the pool rather than dialled for this exchange
}

// Get pops the most recently parked connection that has idled for at most
// IdleTimeout at now, or dials a new one by deadline.
func (p *Pool) Get(now, deadline time.Time) (*Conn, error) {
	if cn := p.take(now); cn != nil {
		return cn, nil
	}
	return p.dial(deadline)
}

func (p *Pool) take(now time.Time) *Conn {
	p.mu.Lock()
	n := len(p.idle)
	if n == 0 {
		p.mu.Unlock()
		return nil
	}
	cn := p.idle[n-1]
	if now.Sub(cn.parked) <= IdleTimeout {
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		cn.reused = true
		return cn
	}
	// The top of a LIFO stack idled least, so every connection has expired.
	stale := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, cn := range stale {
		_ = cn.nc.Close() // the server has most likely closed its end already
	}
	return nil
}

func (p *Pool) dial(deadline time.Time) (*Conn, error) {
	d := net.Dialer{Deadline: deadline}
	nc, err := d.Dial("tcp", p.addr)
	if err != nil {
		return nil, err
	}
	return &Conn{nc: nc, br: bufio.NewReaderSize(nc, ReadBuffer)}, nil
}

// Send writes cn.Req and reads the head of the final reply, skipping
// interim ones. When the reused connection cn fails before the first byte
// of a reply, the request is sent once more on a fresh connection; the
// connection the reply came on is returned, to read its body from and to
// Put. On error every connection involved has been closed.
func (p *Pool) Send(cn *Conn, deadline time.Time, sink Sink) (*Conn, Head, error) {
	unanswered, err := cn.send(deadline, sink)
	if unanswered && cn.reused && !errors.Is(err, os.ErrDeadlineExceeded) {
		// The server closed the idle connection under the request.
		_ = cn.nc.Close() // already dead
		fresh, derr := p.dial(deadline)
		if derr != nil {
			return nil, Head{}, derr
		}
		fresh.Req = cn.Req
		cn = fresh
		_, err = cn.send(deadline, sink)
	}
	if err != nil {
		_ = cn.nc.Close() // the exchange's own error is the one worth reporting
		return nil, Head{}, err
	}
	return cn, cn.head, nil
}

// send is one attempt at the exchange. unanswered reports a failure before
// the first byte of a reply, the one failure after which a reused
// connection is retried.
func (cn *Conn) send(deadline time.Time, sink Sink) (unanswered bool, err error) {
	cn.done = false
	if err := cn.nc.SetDeadline(deadline); err != nil {
		return false, err
	}
	if n, err := cn.nc.Write(cn.Req); err != nil {
		return n == 0, err
	}
	if _, err := cn.br.Peek(1); err != nil {
		return true, err
	}
	h, err := cn.readHead(sink)
	for n := 0; err == nil && h.interim(); n++ {
		if n == MaxInterim {
			return false, errInterim
		}
		h, err = cn.readHead(sink)
	}
	cn.head = h
	return false, err
}

// Put ends an exchange on cn: the connection is parked, as of the
// exchange's start now, when its reply was read to its end and the server
// keeps it open, and closed otherwise.
func (p *Pool) Put(cn *Conn, now time.Time) {
	if !cn.done || cn.head.close || !cn.head.Delimited() || cn.br.Buffered() > 0 {
		_ = cn.nc.Close() // the server closes it, or it is out of step
		return
	}
	cn.parked = now
	p.mu.Lock()
	if len(p.idle) < MaxIdle && !p.closed {
		p.idle = append(p.idle, cn)
		cn = nil
	}
	p.mu.Unlock()
	if cn != nil {
		_ = cn.nc.Close() // surplus connection; nothing is in flight on it
	}
}

// Idle reports how many connections the pool holds.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// Close closes every idle connection. A connection in use is closed when
// it is Put.
func (p *Pool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, cn := range idle {
		_ = cn.nc.Close() // nothing is in flight on an idle connection
	}
}
