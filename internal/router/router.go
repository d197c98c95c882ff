// Package router implements the Janus request router (paper §II-B, §III-B,
// Fig 2).
//
// The router is a stateless HTTP front end. For each QoS request it maps
// the QoS key to a backend partition n with membership.Pick — jump
// consistent hash over FNV-1a-64, where the paper uses CRC32(key) mod N —
// and forwards the request over UDP to QoS server n. Requests for the same
// key always land on the same server, regardless of which router instance
// handles them, which is what partitions the key space without any
// coordination. Statelessness is what lets the router layer scale in and
// out freely (§II-B).
//
// The backend list is not fixed: it is an epoch-versioned
// membership.View that can be hot-swapped with UpdateView while traffic
// flows (the membership-coordinator integration). Jump hash moves only
// ~K/(N+1) keys per added backend; the router records the estimated remap
// fraction of every swap.
//
// The UDP exchange uses the 100 µs/5-retry discipline of
// internal/transport; when all retries are exhausted the router answers
// with a configurable default reply (§III-B).
//
// The HTTP side is internal/h1's server, not net/http's. The router serves
// GET /qos?key=K[&cost=N], whose key and cost are parsed straight from the
// request-URI bytes (wire.ParseHTTPRawQuery) and whose key is routed as
// bytes, and GET /healthz. Any other method gets 405 and a request with a
// body 400. A verdict's reply is the status line, precomputed header text
// (Content-Type and X-Janus-Status; X-Janus-Spans only when traced), Date,
// Content-Length and the body "true" or "false".
package router

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/daemon"
	"repro/internal/events"
	"repro/internal/failpoint"
	"repro/internal/h1"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrNoBackends is returned when a routing decision or router construction
// is attempted with zero backends (n == 0), instead of an index panic.
var ErrNoBackends = membership.ErrNoBackends

// fpBackendSend sits in front of the UDP exchange with a QoS server. A
// partition action keyed on the backend name isolates individual backends;
// drop/error force the retry-exhaustion → default-reply path without
// waiting out real timeouts.
var fpBackendSend = failpoint.New("router/backend/send")

// Resolver turns a backend name into a dialable address. internal/dns
// resolvers satisfy it; nil means names are already addresses.
type Resolver interface {
	ResolveOne(name string) (string, error)
}

// Config configures a router node.
type Config struct {
	// Addr is the HTTP listen address ("127.0.0.1:0" for ephemeral).
	Addr string
	// Backends are the QoS server names (resolved via Resolver) or
	// addresses, in partition order. They form the initial view (epoch 0);
	// UpdateView replaces them wholesale.
	Backends []string
	// Resolver resolves backend names; nil treats names as addresses.
	Resolver Resolver
	// Transport tunes the UDP client (timeout/retries).
	Transport transport.Config
	// DefaultReply is the verdict returned when a QoS server cannot be
	// reached after all retries (the paper's "default reply"). False —
	// deny — is the conservative choice.
	DefaultReply bool
	// Logger receives operational messages; nil discards.
	Logger *log.Logger
	// Registry receives the router's counters, latency histogram, and the
	// shared transport counters for /metrics exposition; nil creates a
	// private registry.
	Registry *metrics.Registry
	// Tracer holds the router's trace state. Requests arriving with an
	// X-Janus-Trace header are traced unconditionally (the edge already
	// sampled); otherwise the tracer's own sampler may start a trace. Nil
	// creates a private recorder with sampling disabled.
	Tracer *trace.Recorder
}

// Stats are cumulative counters for one router node.
type Stats struct {
	Requests       int64 // HTTP QoS requests handled
	BadRequests    int64 // malformed queries
	Timeouts       int64 // backend exchanges that exhausted retries
	DefaultReplies int64 // responses fabricated by the router
	Redials        int64 // backend reconnects after failure
	ViewSwaps      int64 // membership views adopted after the initial one

	// Epoch is the epoch of the view currently routing traffic.
	Epoch uint64
	// LastRemapFraction estimates the fraction of the key space whose
	// owner changed at the most recent view swap (0 before any swap).
	LastRemapFraction float64
}

// routeState is one immutable routing table: a view plus its dial slots.
// Swaps replace the whole value atomically so Route never observes a
// half-updated backend list.
type routeState struct {
	view     membership.View
	backends []*backend
}

// Router is a running request-router node.
type Router struct {
	cfg    Config
	ln     net.Listener
	server *h1.Server
	logger *log.Logger
	// unavailableLog bounds the per-request log of a backend that cannot be
	// resolved or dialed.
	unavailableLog daemon.Throttle

	state  atomic.Pointer[routeState]
	swapMu sync.Mutex // serializes UpdateView

	latency *metrics.Histogram

	registry *metrics.Registry
	tracer   *trace.Recorder

	requests       *metrics.Counter
	badRequests    *metrics.Counter
	timeouts       *metrics.Counter
	defaultReplies *metrics.Counter
	redials        *metrics.Counter
	viewSwaps      *metrics.Counter
	lastRemapBits  atomic.Uint64 // math.Float64bits of LastRemapFraction

	// inDefaultReply tracks whether the router is currently fabricating
	// replies (an exchange just exhausted its retries) — the flight
	// recorder logs the enter/exit edges, not every fabricated reply.
	inDefaultReply atomic.Bool
}

// backend is one QoS server slot, addressed by name and re-resolved on
// failure (the DNS-managed master/slave failover path of §III-C).
type backend struct {
	name     string
	resolver Resolver
	tcfg     transport.Config

	mu     sync.Mutex
	addr   string
	client *transport.Client
}

func (b *backend) getClient() (*transport.Client, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.client != nil {
		return b.client, nil
	}
	addr := b.name
	if b.resolver != nil {
		a, err := b.resolver.ResolveOne(b.name)
		if err != nil {
			return nil, err
		}
		addr = a
	}
	c, err := transport.Dial(addr, b.tcfg)
	if err != nil {
		return nil, err
	}
	b.addr = addr
	b.client = c
	return c, nil
}

// invalidate drops the cached client so the next request re-resolves; used
// after a timeout, which is how the router notices a failover.
func (b *backend) invalidate() {
	b.mu.Lock()
	if b.client != nil {
		// The client is being abandoned after a timeout; its socket-close
		// error has no one to report to.
		_ = b.client.Close()
		b.client = nil
	}
	b.mu.Unlock()
}

func (b *backend) close() {
	b.invalidate()
}

// New starts a router node. It returns ErrNoBackends when cfg.Backends is
// empty.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: %w", ErrNoBackends)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("router: listen %s: %w", cfg.Addr, err)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = trace.NewRecorder(trace.Config{})
	}
	if cfg.Transport.Stats == nil {
		// Share one registry-backed counter set across every backend socket
		// so /metrics aggregates the whole UDP client layer.
		cfg.Transport.Stats = transport.NewStats(reg)
	}
	// The default-reply counter is labelled with the router's failure
	// posture: fail_open routers fabricate admits on backend loss, stealing
	// capacity, while fail_closed routers deny. The label makes the two
	// regimes separable in aggregated dashboards.
	mode := "fail_closed"
	if cfg.DefaultReply {
		mode = "fail_open"
	}
	r := &Router{
		cfg:            cfg,
		ln:             ln,
		logger:         logger,
		latency:        reg.HistogramScaled("janus_router_latency_seconds", "HTTP request latency in seconds", 1e-9),
		registry:       reg,
		tracer:         tracer,
		requests:       reg.Counter("janus_router_requests_total", "HTTP QoS requests handled"),
		badRequests:    reg.Counter("janus_router_bad_requests_total", "malformed QoS queries rejected"),
		timeouts:       reg.Counter("janus_router_timeouts_total", "backend exchanges that exhausted all retries"),
		defaultReplies: reg.Counter("janus_router_default_replies_total", "responses fabricated by the router", metrics.Label{Key: "mode", Value: mode}),
		redials:        reg.Counter("janus_router_redials_total", "backend reconnects after failure"),
		viewSwaps:      reg.Counter("janus_router_view_swaps_total", "membership views adopted after the initial one"),
	}
	reg.GaugeFunc("janus_router_view_epoch", "epoch of the view currently routing traffic", func() float64 {
		return float64(r.state.Load().view.Epoch)
	})
	reg.GaugeFunc("janus_router_backends", "QoS server partitions in the current view", func() float64 {
		return float64(len(r.state.Load().backends))
	})
	reg.GaugeFunc("janus_router_last_remap_fraction", "estimated key-space fraction remapped at the last view swap", func() float64 {
		return math.Float64frombits(r.lastRemapBits.Load())
	})
	initial := membership.View{Epoch: 0, Backends: append([]string(nil), cfg.Backends...)}
	r.state.Store(r.buildState(initial, nil))
	r.server = h1.Serve(ln, r.serve)
	return r, nil
}

// buildState assembles dial slots for a view, reusing slots (and their
// cached UDP clients) from prev for backends that persist across the swap.
func (r *Router) buildState(v membership.View, prev *routeState) *routeState {
	reuse := make(map[string]*backend)
	if prev != nil {
		for _, b := range prev.backends {
			reuse[b.name] = b
		}
	}
	st := &routeState{view: v}
	for _, name := range v.Backends {
		if b, ok := reuse[name]; ok {
			st.backends = append(st.backends, b)
			delete(reuse, name)
			continue
		}
		st.backends = append(st.backends, &backend{name: name, resolver: r.cfg.Resolver, tcfg: r.cfg.Transport})
	}
	return st
}

// UpdateView hot-swaps the routing table to view v. Views with an epoch at
// or below the current one are ignored (stale publications from a lagging
// poller). Backends that persist across the swap keep their cached UDP
// clients; backends that leave are closed. The estimated remap fraction of
// the swap is recorded in Stats.
func (r *Router) UpdateView(v membership.View) error {
	if len(v.Backends) == 0 {
		return fmt.Errorf("router: update view epoch %d: %w", v.Epoch, ErrNoBackends)
	}
	r.swapMu.Lock()
	defer r.swapMu.Unlock()
	old := r.state.Load()
	if v.Epoch <= old.view.Epoch {
		return nil
	}
	v = v.Clone()
	st := r.buildState(v, old)
	remap := membership.RemapFraction(old.view, v, 0)
	r.state.Store(st)
	r.viewSwaps.Inc()
	r.lastRemapBits.Store(math.Float64bits(remap))
	events.Recordf("router", "epoch-swap", "", float64(v.Epoch), "backends=%d remap=%.3f", len(v.Backends), remap)
	r.logger.Printf("router: adopted view epoch %d (%d backends, ~%.1f%% of keys remapped)",
		v.Epoch, len(v.Backends), remap*100)
	// Close slots that left the view; racing in-flight requests see a
	// closed client and fall back to the default reply, exactly as they
	// would for a dead backend.
	kept := make(map[*backend]bool, len(st.backends))
	for _, b := range st.backends {
		kept[b] = true
	}
	for _, b := range old.backends {
		if !kept[b] {
			b.close()
		}
	}
	return nil
}

// View returns the view currently routing traffic.
func (r *Router) View() membership.View { return r.state.Load().view.Clone() }

// Addr returns the HTTP address the router listens on.
func (r *Router) Addr() string { return r.ln.Addr().String() }

// NumBackends returns N, the number of QoS server partitions in the
// current view.
func (r *Router) NumBackends() int { return len(r.state.Load().backends) }

// serve answers GET /qos and GET /healthz; any other method gets 405.
func (r *Router) serve(out []byte, req *h1.Request) []byte {
	path, query := req.URI, []byte(nil)
	if q := bytes.IndexByte(path, '?'); q >= 0 {
		path, query = path[:q], path[q+1:]
	}
	switch {
	case string(path) != wire.HTTPPath && string(path) != "/healthz":
		return h1.AppendText(out, req, http.StatusNotFound, "", "404 page not found\n")
	case string(req.Method) != http.MethodGet:
		return h1.AppendText(out, req, http.StatusMethodNotAllowed, "Allow: GET\r\n", "router: only GET is served\n")
	case req.Body:
		r.badRequests.Inc()
		return h1.AppendText(out, req, http.StatusBadRequest, "", "router: a GET has no body\n")
	case string(path) == "/healthz":
		return h1.AppendText(out, req, http.StatusOK, "", "ok")
	}
	return r.handleQoS(out, req, query)
}

// handleQoS answers a /qos request. The key is decoded into out, the
// connection's reply buffer, and routed from there as bytes; the reply then
// takes the buffer's place, so a check makes no string of its key.
func (r *Router) handleQoS(out []byte, req *h1.Request, query []byte) []byte {
	start := time.Now()
	var qreq wire.Request
	buf, err := wire.ParseHTTPRawQuery(out, query, &qreq)
	if err != nil {
		r.badRequests.Inc()
		return h1.AppendText(out, req, http.StatusBadRequest, "", err.Error()+"\n")
	}
	key := buf[len(out):]
	out = buf[:len(out)]
	// A trace started upstream (the LB) arrives in the header; without one
	// the router's own sampler may start a trace — one atomic load when
	// sampling is disabled.
	if id, perr := trace.ParseID(string(req.Trace)); perr == nil && id != 0 {
		qreq.TraceID = id
	} else if id, ok := r.tracer.Sample(); ok {
		qreq.TraceID = id
	}
	resp, info := route(r, qreq, key)
	r.requests.Inc()
	d := time.Since(start)
	r.latency.RecordDuration(d)
	head := statusHead(resp.Status)
	if qreq.TraceID != 0 {
		spans := r.buildSpans(qreq, resp, info, start, d)
		head += trace.SpanHeader + ": " + trace.EncodeSpans(spans) + "\r\n"
		r.tracer.Record(&trace.Trace{ID: trace.HexID(qreq.TraceID), Spans: spans})
	}
	return h1.AppendText(out, req, http.StatusOK, head, wire.FormatHTTPBody(resp.Allow))
}

// statusHeads holds the X-Janus-Status line of each status a QoS server
// sends.
var statusHeads = func() (h [wire.StatusDegraded + 1]string) {
	for s := range h {
		h[s] = wire.HTTPStatusHeader + ": " + wire.Status(s).String() + "\r\n"
	}
	return h
}()

func statusHead(s wire.Status) string {
	if int(s) < len(statusHeads) {
		return statusHeads[s]
	}
	return wire.HTTPStatusHeader + ": " + s.String() + "\r\n"
}

// buildSpans assembles the router's span (with the retry count that
// explains the 100 µs × 5 budget) plus the QoS server's worker span
// reported in the response datagram.
func (r *Router) buildSpans(qreq wire.Request, resp wire.Response, info routeInfo, start time.Time, d time.Duration) []trace.Span {
	spans := make([]trace.Span, 0, 2)
	spans = append(spans, trace.Span{
		Hop:   "router",
		Note:  fmt.Sprintf("backend=%s retries=%d status=%s", info.backend, max(info.attempts-1, 0), resp.Status),
		Start: start.UnixNano(),
		Dur:   int64(d),
	})
	if resp.TraceID == qreq.TraceID && resp.ServerNanos > 0 {
		// The worker span's duration was measured on the server's clock;
		// its start inherits the router's observation window.
		spans = append(spans, trace.Span{
			Hop:   "qosserver",
			Note:  "status=" + resp.Status.String(),
			Start: start.UnixNano(),
			Dur:   resp.ServerNanos,
		})
	}
	return spans
}

// routeInfo describes how one exchange went, for span annotation.
type routeInfo struct {
	backend  string
	attempts int
}

// Route performs the backend selection and UDP exchange for one request,
// without the HTTP front. It is exported for the isolated router row of
// benchmark/ and for tests.
func (r *Router) Route(qreq wire.Request) wire.Response {
	resp, _ := route(r, qreq, qreq.Key)
	return resp
}

// route sends qreq with key in place of its Key to the key's QoS server.
func route[K string | []byte](r *Router, qreq wire.Request, key K) (wire.Response, routeInfo) {
	st := r.state.Load()
	i, err := membership.Pick(key, len(st.backends))
	if err != nil {
		// Unreachable in practice: New and UpdateView refuse empty views.
		r.logger.Printf("router: pick for %q failed: %v", key, err)
		return r.defaultReply(), routeInfo{}
	}
	b := st.backends[i]
	info := routeInfo{backend: b.name}
	if fpBackendSend.Armed() {
		switch o := fpBackendSend.EvalPeer(b.name); o.Kind {
		case failpoint.Drop, failpoint.Error, failpoint.Partition:
			// The backend is unreachable as far as this request is
			// concerned; take the same path a real retry exhaustion takes,
			// minus the wall-clock wait.
			r.timeouts.Inc()
			return r.defaultReply(), info
		case failpoint.Delay:
			o.Sleep()
		}
	}
	client, err := b.getClient()
	if err != nil {
		r.unavailableLog.Printf(r.logger, "router: backend %s unavailable: %v", b.name, err)
		return r.defaultReply(), info
	}
	resp, attempts, err := transport.DoKey(client, qreq, key)
	info.attempts = attempts
	if err != nil {
		r.timeouts.Inc()
		// Drop the cached client so the next request re-resolves the
		// backend name — after a DNS failover this lands on the new master.
		b.invalidate()
		r.redials.Inc()
		return r.defaultReply(), info
	}
	// A completed wire exchange ends any default-reply episode.
	if r.inDefaultReply.Load() && r.inDefaultReply.CompareAndSwap(true, false) {
		events.Record("router", "default-reply-exit", "", 0)
	}
	return resp, info
}

func (r *Router) defaultReply() wire.Response {
	r.defaultReplies.Inc()
	// Record the edge into default-reply mode, not every fabricated reply:
	// a dead backend fabricates thousands per second, and the flight
	// recorder wants the episode boundaries.
	if !r.inDefaultReply.Load() && r.inDefaultReply.CompareAndSwap(false, true) {
		events.Record("router", "default-reply-enter", "", boolToFloat(r.cfg.DefaultReply))
	}
	return wire.Response{Allow: r.cfg.DefaultReply, Status: wire.StatusDefaultReply}
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Stats returns a snapshot of the router counters.
func (r *Router) Stats() Stats {
	return Stats{
		Requests:          r.requests.Value(),
		BadRequests:       r.badRequests.Value(),
		Timeouts:          r.timeouts.Value(),
		DefaultReplies:    r.defaultReplies.Value(),
		Redials:           r.redials.Value(),
		ViewSwaps:         r.viewSwaps.Value(),
		Epoch:             r.state.Load().view.Epoch,
		LastRemapFraction: math.Float64frombits(r.lastRemapBits.Load()),
	}
}

// Latency returns the HTTP-request latency histogram.
func (r *Router) Latency() *metrics.Histogram { return r.latency }

// Registry returns the metrics registry carrying the router's counters.
func (r *Router) Registry() *metrics.Registry { return r.registry }

// Tracer returns the router's trace recorder.
func (r *Router) Tracer() *trace.Recorder { return r.tracer }

// Close shuts down the router.
func (r *Router) Close() error {
	err := r.server.Close()
	for _, b := range r.state.Load().backends {
		b.close()
	}
	return err
}
