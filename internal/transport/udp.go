// Package transport implements the UDP communication discipline between the
// request router and the QoS server (paper §III-B).
//
// The paper chooses UDP over TCP because admission-control traffic is a
// very high volume of tiny request/response exchanges, and "the overhead of
// opening and closing a large volume of short-lived TCP connections is too
// expensive". UDP is unreliable, so the router compensates with a short
// per-attempt timeout and a bounded number of retries: "we use a
// 100-microsecond communication timeout and a maximum number of 5 retries".
// Requests are idempotent-enough for retransmission (a retried consume may
// in the worst case double-charge one credit, which the paper accepts).
//
// Client is safe for concurrent use: each in-flight request gets a unique
// ID and leaves as one datagram, and a single reader goroutine hands each
// response to the waiter whose ID it carries.
package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Fault-injection sites on the UDP hot paths (see internal/failpoint and
// the chaos suite). Disarmed cost is one atomic load per operation.
var (
	fpClientSend = failpoint.New("transport/client/send")
	fpClientRecv = failpoint.New("transport/client/recv")
	fpServerRecv = failpoint.New("transport/server/recv")
)

// Defaults from the paper (§III-B).
const (
	// DefaultTimeout is the per-attempt response timeout. The paper uses
	// 100 µs inside one EC2 availability zone; on loopback with Go
	// schedulers in the path the same discipline applies.
	DefaultTimeout = 100 * time.Microsecond
	// DefaultRetries is the maximum number of attempts.
	DefaultRetries = 5
)

// ErrTimeout is returned when all attempts expire without a response.
var ErrTimeout = errors.New("transport: request timed out after all retries")

// Config tunes a Client.
type Config struct {
	// Timeout is the per-attempt wait (DefaultTimeout if zero).
	Timeout time.Duration
	// Retries is the maximum number of attempts (DefaultRetries if zero).
	Retries int
	// Stats, when non-nil, shares attempt/timeout/response counters across
	// every client built from this config — the router passes a
	// registry-backed set so one /metrics page aggregates all its backend
	// sockets. Nil gives the client private counters.
	Stats *Stats
}

// Stats holds the transport counters. Build a registry-backed set with
// NewStats to expose them on /metrics; the zero-value-free constructor
// newPrivateStats backs a standalone client.
type Stats struct {
	// Attempts counts request datagrams sent, including retries.
	Attempts *metrics.Counter
	// Timeouts counts attempts that expired without a response.
	Timeouts *metrics.Counter
	// Responses counts response datagrams received and decoded.
	Responses *metrics.Counter
}

// NewStats registers the transport counters on reg and returns the shared
// set. Calling it twice with the same registry returns handles to the same
// counters.
func NewStats(reg *metrics.Registry) *Stats {
	return &Stats{
		Attempts:  reg.Counter("janus_transport_attempts_total", "UDP request datagrams sent, including retries"),
		Timeouts:  reg.Counter("janus_transport_timeouts_total", "UDP attempts that expired without a response"),
		Responses: reg.Counter("janus_transport_responses_total", "UDP response datagrams received and decoded"),
	}
}

func newPrivateStats() *Stats {
	return &Stats{Attempts: &metrics.Counter{}, Timeouts: &metrics.Counter{}, Responses: &metrics.Counter{}}
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.Retries <= 0 {
		c.Retries = DefaultRetries
	}
	return c
}

// Client issues QoS requests to one QoS server address over a single UDP
// socket.
type Client struct {
	cfg    Config
	conn   *net.UDPConn
	raddr  string // resolved peer address, the partition-failpoint key
	nextID atomic.Uint64

	mu      sync.Mutex
	waiters map[uint64]chan wire.Response
	closed  bool

	// stats are private to the client unless Config.Stats shared a set.
	stats *Stats
}

// waiter is what one exchange needs besides the socket: the reply channel
// readLoop delivers to, the per-attempt timer and the encode buffer. Every
// DoAttempts takes one from waiterPool and returns it empty — channel
// drained, timer stopped — so a steady stream of exchanges allocates
// nothing.
type waiter struct {
	ch    chan wire.Response
	timer *time.Timer
	buf   []byte
}

var waiterPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &waiter{ch: make(chan wire.Response, 1), timer: t}
}}

// Dial creates a client bound to the QoS server at addr ("host:port").
func Dial(addr string, cfg Config) (*Client, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %s: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	c := &Client{
		cfg:     cfg.withDefaults(),
		conn:    conn,
		raddr:   raddr.String(),
		waiters: make(map[uint64]chan wire.Response),
		stats:   cfg.Stats,
	}
	if c.stats == nil {
		c.stats = newPrivateStats()
	}
	go c.readLoop()
	return c, nil
}

// readLoop drains responses off the socket until the client closes. The read
// blocks by design: this loop is the client's demultiplexer. Close() closes
// the socket, which unblocks Read with an error and ends the loop.
//
// The send to a waiter's channel happens under c.mu: once DoAttempts has
// deleted its entry under the same lock, no reply — late or duplicate — can
// reach the channel, so draining it after the delete leaves it empty for
// the pool's next user.
//
//janus:deadlined Close() unblocks the read
func (c *Client) readLoop() {
	buf := make([]byte, wire.MaxDatagram)
	for {
		n, err := c.conn.Read(buf)
		if err != nil {
			return // socket closed
		}
		// Every request leaves as a singleton frame, so every reply is one.
		resp, err := wire.DecodeResponse(buf[:n])
		if err != nil {
			continue // corrupt datagram; the sender will retry
		}
		if fpClientRecv.Armed() {
			switch o := fpClientRecv.EvalPeer(c.raddr); o.Kind {
			case failpoint.Drop, failpoint.Partition:
				continue // response lost on the wire
			case failpoint.Delay:
				o.Sleep()
			}
		}
		c.stats.Responses.Inc()
		c.mu.Lock()
		if ch := c.waiters[resp.ID]; ch != nil {
			select {
			case ch <- resp:
			default: // duplicate response for an already-answered request
			}
		}
		c.mu.Unlock()
	}
}

// Do sends req and waits for the matching response, retrying per the
// configured discipline. On exhaustion it returns ErrTimeout — the caller
// (the request router) then substitutes its default reply.
func (c *Client) Do(req wire.Request) (wire.Response, error) {
	resp, _, err := c.DoAttempts(req)
	return resp, err
}

// DoAttempts is Do, additionally reporting how many attempts the exchange
// took (1 = no retries). The router records the count in the request's
// trace span — the paper's 100 µs × 5 budget is only explainable per
// request with this number.
func (c *Client) DoAttempts(req wire.Request) (wire.Response, int, error) {
	req.ID = c.nextID.Add(1)
	w := waiterPool.Get().(*waiter)
	packet, err := wire.AppendRequest(w.buf[:0], req)
	if err != nil {
		waiterPool.Put(w)
		return wire.Response{}, 0, err
	}
	w.buf = packet
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		waiterPool.Put(w)
		return wire.Response{}, 0, net.ErrClosed
	}
	c.waiters[req.ID] = w.ch
	c.mu.Unlock()
	defer c.release(req.ID, w)

	// The whole exchange runs against one budget of Retries × Timeout,
	// fixed before the first attempt. Each attempt waits at most Timeout,
	// and anything that stalls the send side (scheduling, injected delay
	// failpoints) eats into the budget instead of extending it — so 5
	// retries can never take much more than ~5× the per-try timeout, which
	// is the latency bound the router's default reply promises (§III-B).
	deadline := time.Now().Add(time.Duration(c.cfg.Retries) * c.cfg.Timeout)
	attempts := 0
	for attempt := 0; attempt < c.cfg.Retries; attempt++ {
		attempts = attempt + 1
		sends := 1
		if fpClientSend.Armed() {
			switch o := fpClientSend.EvalPeer(c.raddr); o.Kind {
			case failpoint.Drop, failpoint.Partition:
				sends = 0 // request lost on the wire; still wait and retry
			case failpoint.Delay:
				o.Sleep()
			case failpoint.Error:
				return wire.Response{}, attempts, o.Err
			case failpoint.Dup:
				sends = 2
			}
		}
		for i := 0; i < sends; i++ {
			c.stats.Attempts.Inc()
			//lint:ignore netio fire-and-forget UDP send; the bounded wait below is the exchange's real timeout
			if _, err := c.conn.Write(packet); err != nil {
				return wire.Response{}, attempts, fmt.Errorf("transport: send: %w", err)
			}
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			// Budget exhausted before this attempt could wait: count the
			// timeout and stop retrying rather than overrun the bound.
			c.stats.Timeouts.Inc()
			break
		}
		if wait > c.cfg.Timeout {
			wait = c.cfg.Timeout
		}
		stopTimer(w.timer)
		w.timer.Reset(wait)
		select {
		case resp := <-w.ch:
			return resp, attempts, nil
		case <-w.timer.C:
			c.stats.Timeouts.Inc()
		}
	}
	return wire.Response{}, attempts, ErrTimeout
}

// release ends an exchange and returns its waiter to the pool. The order
// matters: the entry leaves c.waiters under c.mu first, so readLoop, which
// sends under the same lock, can deliver nothing more; only then is a
// duplicate or late reply that got in before the delete drained.
func (c *Client) release(id uint64, w *waiter) {
	c.mu.Lock()
	delete(c.waiters, id)
	c.mu.Unlock()
	select {
	case <-w.ch:
	default:
	}
	stopTimer(w.timer)
	waiterPool.Put(w)
}

// stopTimer stops t and empties its channel, so the next Reset starts clean.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// Stats reports cumulative attempt/timeout/response counts. When
// Config.Stats shared a counter set, the numbers aggregate every client on
// that set.
func (c *Client) Stats() (attempts, timeouts, responses int64) {
	return c.stats.Attempts.Value(), c.stats.Timeouts.Value(), c.stats.Responses.Value()
}

// Close releases the socket, which ends readLoop.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

// Handler processes one decoded request and returns the response to send.
// The request ID is managed by Server.
type Handler func(req wire.Request) wire.Response

// Server is a UDP listener that decodes requests, hands them to a handler,
// and writes responses back to the requester's address. The QoS server
// builds its listener/FIFO/worker pipeline on top of the lower-level
// PacketConn directly; this Server is the simple synchronous variant used
// by tests and small tools.
type Server struct {
	conn      *net.UDPConn
	handler   Handler
	wg        sync.WaitGroup
	writeErrs atomic.Int64
}

// NewServer starts a synchronous UDP server on addr ("127.0.0.1:0" for an
// ephemeral port).
func NewServer(addr string, handler Handler) (*Server, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &Server{conn: conn, handler: handler}
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.conn.LocalAddr().String() }

// serve is the accept loop: one datagram in, one handler call, one datagram
// out. The accept-style read blocks by design; Close() closes the socket,
// which unblocks ReadFromUDPAddrPort with an error and ends the loop. The
// response send is fire-and-forget UDP — WriteToUDPAddrPort does not block
// on the peer.
//
//janus:deadlined Close() unblocks the read; the send does not block
func (s *Server) serve() {
	defer s.wg.Done()
	// The decoded request and both buffers are reused across datagrams, and
	// the peer is a netip.AddrPort value, so a recurring key set costs the
	// loop no allocation.
	var req wire.Request
	buf := make([]byte, wire.MaxDatagram)
	out := make([]byte, 0, 64)
	for {
		n, raddr, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		// A dual-stack socket reports an IPv4 peer IPv4-mapped; unmapped,
		// its string is "a.b.c.d:port", the failpoint partition key.
		raddr = netip.AddrPortFrom(raddr.Addr().Unmap(), raddr.Port())
		if fpServerRecv.Armed() {
			switch o := fpServerRecv.EvalPeer(raddr.String()); o.Kind {
			case failpoint.Drop, failpoint.Partition:
				continue // request lost before the handler saw it
			case failpoint.Delay:
				o.Sleep()
			}
		}
		if err := wire.DecodeRequestReuse(buf[:n], &req); err != nil {
			continue
		}
		resp := s.handler(req)
		resp.ID = req.ID
		// Fire-and-forget (the client retries), but a send the kernel
		// refused is still counted so it cannot hide.
		out, err = wire.AppendResponse(out[:0], resp)
		if err != nil {
			s.writeErrs.Add(1)
			continue
		}
		if _, err := s.conn.WriteToUDPAddrPort(out, raddr); err != nil {
			s.writeErrs.Add(1)
		}
	}
}

// WriteErrors reports how many response sends the kernel refused.
func (s *Server) WriteErrors() int64 { return s.writeErrs.Load() }

// Close stops the server.
func (s *Server) Close() error {
	err := s.conn.Close()
	s.wg.Wait()
	return err
}
