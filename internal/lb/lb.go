// Package lb implements the gateway load balancer (paper §II-A, Fig 1a) —
// the ELB analogue. It is an HTTP reverse proxy in front of the request
// router layer: it accepts the QoS client's HTTP request, holds it, opens
// its own HTTP exchange with a back-end router chosen round robin, and
// relays the answer. That extra TCP leg is precisely the ~500 µs of
// additional round-trip latency the paper measures against DNS load
// balancing in Fig 5.
//
// Round robin is the one routing policy (§II-A): requests go to the back
// ends one by one. Each back end's requests in flight are exported as
// janus_lb_backend_outstanding.
//
// Both sides are internal/h1, with no net/http in between. The accept side
// is h1's server; each back end holds an h1 pool of persistent connections,
// the same exchange internal/client uses, so forwarding is one plain
// HTTP/1.1 exchange in the accepting connection's goroutine.
//
//   - Request. Only GET without a body is forwarded (anything else gets 405
//     without a back end being dialled): the request line with the client's
//     request-URI in origin form, Host, and X-Janus-Trace when the request is
//     traced. The router serves nothing else.
//   - Reply. The back end's reply is read whole — head, then a body of at
//     most h1.ReadBuffer bytes — before any of it is relayed. Its status and
//     end-to-end header lines (all but Connection, Keep-Alive,
//     Transfer-Encoding, Trailer and Content-Length) are appended to the
//     client's reply as the h1.Sink receives them, then Date when the back
//     end sent none, a Content-Length of the LB's own, and the body.
//     FuzzLBRelay holds the relay to what http.ReadResponse reads from the
//     same bytes.
//   - Failover. A dial error, or a reply that fails before its head is
//     read, sends the request to the next back end, until each has had a
//     turn; then the answer is 502. A reply that fails after its head has
//     been read fails the request with 502 at once: the back end has
//     answered, and a second router would spend the key's credit again. A
//     stale keep-alive connection is re-sent once, to the same back end, by
//     h1's retry rule.
//   - Scale-in. RemoveBackend and Close close the back end's idle
//     connections; one in flight is closed when its exchange ends.
package lb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/failpoint"
	"repro/internal/h1"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// fpProxyDial sits on the LB's exchange with a router back end (peer = back
// end address). Failing it exercises the skip-and-retry path: the LB must
// fail over to the next back end, and only 502 when every back end is cut.
var fpProxyDial = failpoint.New("lb/proxy/dial")

// forwardBudget bounds one exchange with a back end, dial and retry
// included.
const forwardBudget = 10 * time.Second

// Config configures a gateway load balancer.
type Config struct {
	// Addr is the HTTP listen address.
	Addr string
	// Backends are the initial back-end addresses (request router nodes).
	Backends []string
	// HopDelay, when non-nil, is invoked once per proxied request and may
	// sleep to model the extra network hop of a hardware appliance.
	HopDelay func()
	// Logger receives operational messages; nil discards.
	Logger *log.Logger
	// Registry receives the LB's counters and latency histogram for
	// /metrics exposition; nil creates a private registry.
	Registry *metrics.Registry
	// Tracer holds the LB's trace state. The LB is the edge of the stack:
	// its sampler decides which requests are traced (clients may also force
	// a trace by sending an X-Janus-Trace header), and completed traces —
	// the LB span plus every downstream span reported in the X-Janus-Spans
	// response header — land in its recorder. Nil creates a private
	// recorder with sampling disabled.
	Tracer *trace.Recorder
}

// Stats are cumulative counters for the load balancer.
type Stats struct {
	Requests      int64
	Proxied       int64 // exchanges attempted against back ends
	BackendErrors int64
	NoBackends    int64 // requests failed because no back end was usable
}

type backendState struct {
	addr string
	// tail is a request's text from after its request-URI to the Host line's
	// end.
	tail        string
	pool        *h1.Pool
	outstanding *metrics.Gauge
	served      *metrics.Counter
}

// LB is a running gateway load balancer.
type LB struct {
	cfg    Config
	ln     net.Listener
	server *h1.Server
	logger *log.Logger
	// spanErrLog bounds the log of malformed span headers, one per traced reply.
	spanErrLog daemon.Throttle

	mu       sync.Mutex
	backends []*backendState
	rrNext   int

	latency *metrics.Histogram
	// relays recycles the sinks of finished exchanges, up to its capacity.
	relays chan *relay

	registry *metrics.Registry
	tracer   *trace.Recorder

	requests      *metrics.Counter
	proxied       *metrics.Counter
	backendErrors *metrics.Counter
	noBackends    *metrics.Counter
}

// newBackendState builds the per-backend series, labelled by address so the
// §V-A workload-distribution check reads straight off /metrics.
func (l *LB) newBackendState(addr string) *backendState {
	label := metrics.Label{Key: "backend", Value: addr}
	return &backendState{
		addr:        addr,
		tail:        " HTTP/1.1\r\nHost: " + addr + "\r\n",
		pool:        h1.NewPool(addr),
		outstanding: l.registry.Gauge("janus_lb_backend_outstanding", "requests in flight to one back end", label),
		served:      l.registry.Counter("janus_lb_backend_served_total", "requests completed by one back end", label),
	}
}

// New starts a load balancer.
func New(cfg Config) (*LB, error) {
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("lb: listen %s: %w", cfg.Addr, err)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = trace.NewRecorder(trace.Config{})
	}
	l := &LB{
		cfg:      cfg,
		ln:       ln,
		logger:   logger,
		latency:  reg.HistogramScaled("janus_lb_latency_seconds", "end-to-end proxy latency in seconds", 1e-9),
		relays:   make(chan *relay, freeRelays),
		registry: reg,
		tracer:   tracer,
		requests: reg.Counter("janus_lb_requests_total", "HTTP requests accepted at the gateway"),
		proxied:  reg.Counter("janus_lb_proxied_total", "exchanges attempted against back ends"),
		backendErrors: reg.Counter("janus_lb_backend_errors_total",
			"proxied exchanges that failed against a back end"),
		noBackends: reg.Counter("janus_lb_no_backends_total", "requests failed because no back end was usable"),
	}
	for _, b := range cfg.Backends {
		l.backends = append(l.backends, l.newBackendState(b))
	}
	l.server = h1.Serve(ln, l.proxy)
	return l, nil
}

// Addr returns the LB's HTTP endpoint — the Janus service endpoint in the
// gateway-LB deployment.
func (l *LB) Addr() string { return l.ln.Addr().String() }

// AddBackend registers a new back-end node (auto-scaling attach).
func (l *LB) AddBackend(addr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, b := range l.backends {
		if b.addr == addr {
			return
		}
	}
	l.backends = append(l.backends, l.newBackendState(addr))
}

// RemoveBackend deregisters a back-end node (auto-scaling detach) and
// closes its idle connections.
func (l *LB) RemoveBackend(addr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.backends[:0]
	for _, b := range l.backends {
		if b.addr != addr {
			out = append(out, b)
		} else {
			b.pool.Close()
		}
	}
	l.backends = out
	if len(l.backends) > 0 {
		l.rrNext %= len(l.backends)
	} else {
		l.rrNext = 0
	}
}

// Backends returns the current back-end addresses.
func (l *LB) Backends() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.backends))
	for i, b := range l.backends {
		out[i] = b.addr
	}
	return out
}

// pick chooses the next back end round robin, skipping those already tried.
func (l *LB) pick(tried []*backendState) *backendState {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.backends)
	for i := 0; i < n; i++ {
		b := l.backends[l.rrNext]
		l.rrNext = (l.rrNext + 1) % n
		if !slices.Contains(tried, b) {
			return b
		}
	}
	return nil
}

// proxy answers one client request: the reply of the first back end that
// answers it, or an error of the LB's own.
func (l *LB) proxy(out []byte, req *h1.Request) []byte {
	start := time.Now()
	l.requests.Inc()
	if string(req.Method) != http.MethodGet || req.Body {
		return h1.AppendText(out, req, http.StatusMethodNotAllowed, "Allow: GET\r\n", "lb: only GET without a body is forwarded\n")
	}
	if l.cfg.HopDelay != nil {
		l.cfg.HopDelay()
	}
	// The LB is the trace edge: honour a client-supplied trace ID, or draw
	// a sampling decision (one atomic load when sampling is disabled).
	tid, _ := trace.ParseID(string(req.Trace))
	if tid == 0 {
		if id, ok := l.tracer.Sample(); ok {
			tid = id
		}
	}
	// A back end that fails before answering is skipped and the next one
	// tried, until every back end has had a turn.
	var buf [4]*backendState
	tried := buf[:0]
	var lastErr error
	for {
		b := l.pick(tried)
		if b == nil {
			break
		}
		reply, spans, answered, err := l.forward(out, req, b, tid)
		if err == nil {
			d := time.Since(start)
			l.latency.RecordDuration(d)
			if tid != 0 {
				l.completeTrace(tid, spans, b.addr, len(tried), start, d)
			}
			return reply
		}
		lastErr = err
		l.backendErrors.Inc()
		if answered {
			break // the back end spent the request's credit; no second router
		}
		tried = append(tried, b)
	}
	l.noBackends.Inc()
	if lastErr == nil {
		lastErr = errors.New("lb: no back ends available")
	}
	return h1.AppendText(out, req, http.StatusBadGateway, "", lastErr.Error()+"\n")
}

// completeTrace assembles the request's trace: the LB's own span first,
// then every downstream span the router reported in the response header.
func (l *LB) completeTrace(tid uint64, spanHdr, backend string, retries int, start time.Time, d time.Duration) {
	downstream, err := trace.DecodeSpans(spanHdr)
	if err != nil {
		l.spanErrLog.Printf(l.logger, "lb: dropping malformed span header from %s: %v", backend, err)
	}
	spans := make([]trace.Span, 0, 1+len(downstream))
	spans = append(spans, trace.Span{
		Hop:   "lb",
		Note:  fmt.Sprintf("backend=%s retries=%d", backend, retries),
		Start: start.UnixNano(),
		Dur:   int64(d),
	})
	spans = append(spans, downstream...)
	l.tracer.Record(&trace.Trace{ID: trace.HexID(tid), Spans: spans})
}

// forward performs one proxied exchange against back end b and, once the
// back end's reply has been read whole, returns out with the client's reply
// appended, and the X-Janus-Spans value the back end reported when tid is
// not zero. On error, answered reports that the back end's reply head had
// been read, so the request must not be sent to another back end.
func (l *LB) forward(out []byte, req *h1.Request, b *backendState, tid uint64) (reply []byte, spans string, answered bool, err error) {
	b.outstanding.Add(1)
	defer b.outstanding.Add(-1)
	l.proxied.Inc()
	if fpProxyDial.Armed() {
		switch o := fpProxyDial.EvalPeer(b.addr); o.Kind {
		case failpoint.Error, failpoint.Partition:
			return nil, "", false, o.Err
		case failpoint.Drop:
			return nil, "", false, fmt.Errorf("lb: dial %s dropped by failpoint", b.addr)
		case failpoint.Delay:
			o.Sleep()
		}
	}
	now := time.Now()
	deadline := now.Add(forwardBudget)
	cn, err := b.pool.Get(now, deadline)
	if err != nil {
		return nil, "", false, err
	}
	cn.Req = appendRequest(cn.Req[:0], req.URI, b.tail, tid)
	var rl *relay
	select {
	case rl = <-l.relays:
	default:
		rl = new(relay)
	}
	*rl = relay{out: out}
	cn, h, err := b.pool.Send(cn, deadline, rl)
	reply, date, at := rl.out, rl.date, rl.spans
	*rl = relay{} // the free list keeps no client's buffer
	select {
	case l.relays <- rl:
	default: // full: left to the GC
	}
	if err != nil {
		return nil, "", false, err
	}
	var body []byte
	if h.Status < http.StatusOK {
		// 101: the connection no longer speaks HTTP; there is nothing to relay.
		err = fmt.Errorf("lb: %s answered HTTP %d", b.addr, h.Status)
	} else {
		body, err = cn.Body(h1.ReadBuffer)
	}
	if err != nil {
		b.pool.Put(cn, now)
		return nil, "", true, err
	}
	if !date {
		reply = h1.AppendDate(reply, req)
	}
	reply = h1.AppendBody(reply, req, h.Status, body)
	b.pool.Put(cn, now)
	b.served.Inc()
	if tid != 0 && at[1] != 0 {
		spans = string(reply[at[0]:at[1]])
	}
	return reply, spans, true, nil
}

// appendRequest appends the request forwarded for the origin-form
// request-URI uri to dst: the request line, the Host line that tail ends
// with, and the trace ID when tid is not zero.
func appendRequest(dst, uri []byte, tail string, tid uint64) []byte {
	dst = append(dst, "GET "...)
	dst = append(dst, uri...)
	dst = append(dst, tail...)
	if tid != 0 {
		dst = append(dst, trace.Header+": "...)
		dst = append(dst, trace.FormatID(tid)...)
		dst = append(dst, "\r\n"...)
	}
	return append(dst, "\r\n"...)
}

// freeRelays bounds LB.relays; why not a sync.Pool: DESIGN.md §3.4.
const freeRelays = 64

// relay is the h1.Sink of one exchange: it appends the back end's status
// line and end-to-end header lines, as read, to the client's reply, noting
// whether a Date line came and where the first X-Janus-Spans value is.
type relay struct {
	out   []byte
	date  bool
	spans [2]int // the first X-Janus-Spans value is out[spans[0]:spans[1]]; zero when there is none
}

var (
	dateName  = []byte("Date")
	spansName = []byte(trace.SpanHeader)
)

func (r *relay) Status(code int) { r.out = h1.AppendStatusLine(r.out, code) }

func (r *relay) Header(name, value []byte) {
	r.out = append(r.out, name...)
	r.out = append(r.out, ": "...)
	switch {
	case bytes.EqualFold(name, dateName):
		r.date = true
	case r.spans[1] == 0 && bytes.EqualFold(name, spansName):
		r.spans = [2]int{len(r.out), len(r.out) + len(value)}
	}
	r.out = append(r.out, value...)
	r.out = append(r.out, "\r\n"...)
}

// Stats returns a snapshot of the LB counters.
func (l *LB) Stats() Stats {
	return Stats{
		Requests:      l.requests.Value(),
		Proxied:       l.proxied.Value(),
		BackendErrors: l.backendErrors.Value(),
		NoBackends:    l.noBackends.Value(),
	}
}

// ServedPerBackend returns how many requests each back end completed,
// keyed by address — used to verify workload distribution (§V-A).
func (l *LB) ServedPerBackend() map[string]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]int64, len(l.backends))
	for _, b := range l.backends {
		out[b.addr] = b.served.Value()
	}
	return out
}

// Latency returns the end-to-end proxy latency histogram.
func (l *LB) Latency() *metrics.Histogram { return l.latency }

// Registry returns the metrics registry backing the LB's counters.
func (l *LB) Registry() *metrics.Registry { return l.registry }

// Tracer returns the LB's trace recorder (the edge sampler).
func (l *LB) Tracer() *trace.Recorder { return l.tracer }

// Close shuts the load balancer down and closes its back-end connections.
func (l *LB) Close() error {
	err := l.server.Close()
	l.mu.Lock()
	for _, b := range l.backends {
		b.pool.Close()
	}
	l.mu.Unlock()
	return err
}
