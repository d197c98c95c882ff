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
// Client is safe for concurrent use and starts no goroutine: an exchange
// holds one of at most 64 connected sockets, sends each attempt on it, and
// reads its own reply by ID, dropping late or duplicate ones.
package transport

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
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

// maxSockets bounds the sockets, and so the descriptors, a Client spends on
// its QoS server. An exchange that finds all of them busy waits for one
// inside its budget, which costs throughput: against the one shared socket
// this client replaced, 16 sockets served 16 % fewer checks a second at 64
// closed-loop clients on one router, and 64 sockets 7 % fewer at 128.
const maxSockets = 64

// freeTimers bounds Client.timers; why not a sync.Pool: DESIGN.md §3.4.
const freeTimers = 64

// Client issues QoS requests to one QoS server address.
type Client struct {
	cfg    Config
	raddr  *net.UDPAddr
	peer   string // raddr as a string, the partition-failpoint key
	nextID atomic.Uint64

	idle    chan *socket // sockets no exchange holds
	open    atomic.Int32 // sockets dialled, plus claims past the bound not yet undone
	closed  atomic.Bool
	closing chan struct{}    // closed by Close, to wake exchanges waiting for a socket
	timers  chan *time.Timer // recycles the timers of exchanges that waited for a socket

	// stats are private to the client unless Config.Stats shared a set.
	stats *Stats
}

// socket is a connected UDP socket with its exchange's buffers.
type socket struct {
	conn *net.UDPConn
	out  []byte // the encoded request, sent again on each attempt
	in   [wire.MaxResponseDatagram]byte
}

// Dial creates a client bound to the QoS server at addr ("host:port"). Its
// sockets are dialled as exchanges need them.
func Dial(addr string, cfg Config) (*Client, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %s: %w", addr, err)
	}
	c := &Client{
		cfg:     cfg.withDefaults(),
		raddr:   raddr,
		peer:    raddr.String(),
		idle:    make(chan *socket, maxSockets),
		closing: make(chan struct{}),
		timers:  make(chan *time.Timer, freeTimers),
		stats:   cmp.Or(cfg.Stats, newPrivateStats()),
	}
	return c, nil
}

// take returns an idle socket, else dials one while fewer than maxSockets
// are open, else waits for one until deadline.
func (c *Client) take(deadline time.Time) (*socket, error) {
	if c.closed.Load() {
		return nil, net.ErrClosed
	}
	select {
	case s := <-c.idle:
		return s, nil
	default:
	}
	if c.open.Add(1) <= maxSockets {
		conn, err := net.DialUDP("udp", nil, c.raddr)
		if err != nil {
			c.open.Add(-1)
			return nil, fmt.Errorf("transport: dial %s: %w", c.peer, err)
		}
		return &socket{conn: conn}, nil
	}
	c.open.Add(-1)
	var t *time.Timer
	select {
	case t = <-c.timers:
		t.Reset(time.Until(deadline)) // no stale tick since Go 1.23
	default:
		t = time.NewTimer(time.Until(deadline))
	}
	defer c.recycle(t)
	select {
	case s := <-c.idle:
		return s, nil
	case <-c.closing:
		return nil, net.ErrClosed
	case <-t.C:
		return nil, ErrTimeout
	}
}

// recycle stops t and returns it to c.timers, or leaves it to the GC when
// the list is full.
func (c *Client) recycle(t *time.Timer) {
	t.Stop()
	select {
	case c.timers <- t:
	default:
	}
}

// give returns s to the idle sockets; one returned after Close is closed,
// by this drain or by Close's.
func (c *Client) give(s *socket) {
	c.idle <- s
	if c.closed.Load() {
		_ = c.drain() // the exchange that held s has no one to report to
	}
}

// drain closes every idle socket.
func (c *Client) drain() error {
	var errs []error
	for {
		select {
		case s := <-c.idle:
			errs = append(errs, s.conn.Close())
		default:
			return errors.Join(errs...)
		}
	}
}

// Do sends req and waits for the matching response, retrying per the
// configured discipline. On exhaustion it returns ErrTimeout — the caller
// (the request router) then substitutes its default reply.
func (c *Client) Do(req wire.Request) (wire.Response, error) {
	resp, _, err := DoKey(c, req, req.Key)
	return resp, err
}

// DoKey is c.Do with the key given apart from req, whose Key it ignores, so
// the router sends a key it holds as bytes without making a string of it.
// It also reports how many attempts the exchange took (1 = no retries): the
// router records the count in the request's trace span, since the paper's
// 100 µs × 5 budget is only explainable per request with this number.
func DoKey[K string | []byte](c *Client, req wire.Request, key K) (wire.Response, int, error) {
	// One Retries × Timeout budget covers the exchange, a wait for a socket
	// and any stall included, so 5 retries never take much more than 5× the
	// per-attempt timeout: the bound the router's default reply promises.
	deadline := time.Now().Add(time.Duration(c.cfg.Retries) * c.cfg.Timeout)
	s, err := c.take(deadline)
	if err != nil {
		return wire.Response{}, 0, err
	}
	defer c.give(s)
	req.ID = c.nextID.Add(1)
	if s.out, err = wire.AppendRequestKey(s.out[:0], req, key); err != nil {
		return wire.Response{}, 0, err
	}
	attempts := 0
	for attempts < c.cfg.Retries {
		attempts++
		sends := 1
		if fpClientSend.Armed() {
			switch o := fpClientSend.EvalPeer(c.peer); o.Kind {
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
			// A connected socket reports an ICMP refusal of an earlier
			// datagram on its next call, once; it costs that call's datagram.
			//lint:ignore netio fire-and-forget UDP send; the read deadline below is the exchange's real timeout
			if _, err := s.conn.Write(s.out); err != nil && !errors.Is(err, syscall.ECONNREFUSED) {
				return wire.Response{}, attempts, fmt.Errorf("transport: send: %w", err)
			}
		}
		now := time.Now()
		if !now.Before(deadline) {
			c.stats.Timeouts.Inc() // no budget left for this attempt to wait
			break
		}
		if err := s.conn.SetReadDeadline(now.Add(min(deadline.Sub(now), c.cfg.Timeout))); err != nil {
			return wire.Response{}, attempts, fmt.Errorf("transport: receive: %w", err)
		}
		// Every datagram but the reply to req.ID is dropped: a corrupt one,
		// or a late or duplicate reply to an earlier exchange on s.
		for {
			n, err := s.conn.Read(s.in[:])
			if errors.Is(err, os.ErrDeadlineExceeded) {
				break
			} else if errors.Is(err, syscall.ECONNREFUSED) {
				continue // a lost datagram
			} else if err != nil {
				return wire.Response{}, attempts, fmt.Errorf("transport: receive: %w", err)
			}
			resp, err := wire.DecodeResponse(s.in[:n])
			if err != nil {
				continue
			}
			if fpClientRecv.Armed() {
				switch o := fpClientRecv.EvalPeer(c.peer); o.Kind {
				case failpoint.Drop, failpoint.Partition:
					continue // response lost on the wire
				case failpoint.Delay:
					if o.Sleep(); !time.Now().Before(deadline) {
						continue // delayed past the budget: late
					}
				}
			}
			c.stats.Responses.Inc()
			if resp.ID == req.ID {
				return resp, attempts, nil
			}
		}
		c.stats.Timeouts.Inc()
	}
	return wire.Response{}, attempts, ErrTimeout
}

// Stats reports cumulative attempt/timeout/response counts. When
// Config.Stats shared a counter set, the numbers aggregate every client on
// that set.
func (c *Client) Stats() (attempts, timeouts, responses int64) {
	return c.stats.Attempts.Value(), c.stats.Timeouts.Value(), c.stats.Responses.Value()
}

// Close closes the idle sockets; a socket still in an exchange is closed
// when its exchange ends. Exchanges started after Close fail with
// net.ErrClosed.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(c.closing)
	return c.drain()
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
	conn    *net.UDPConn
	handler Handler
	wg      sync.WaitGroup
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
		// Fire-and-forget: a reply that cannot be encoded or sent is
		// dropped, and the client retries.
		if out, err = wire.AppendResponse(out[:0], resp); err != nil {
			continue
		}
		_, _ = s.conn.WriteToUDPAddrPort(out, raddr)
	}
}

// Close stops the server.
func (s *Server) Close() error {
	err := s.conn.Close()
	s.wg.Wait()
	return err
}
