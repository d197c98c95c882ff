// Package lb implements the gateway load balancer (paper §II-A, Fig 1a) —
// the ELB analogue. It is an HTTP reverse proxy in front of the request
// router layer: it accepts the QoS client's HTTP request, holds it, opens
// its own HTTP exchange with a back-end router chosen by the configured
// policy, and relays the answer. That extra TCP leg is precisely the
// ~500 µs of additional round-trip latency the paper measures against DNS
// load balancing in Fig 5.
//
// Two routing policies are provided (§II-A): round robin, which hands
// requests to back ends one by one, and least connections, which picks the
// back end with the fewest outstanding requests.
package lb

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/failpoint"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// fpProxyDial sits on the LB's exchange with a router back end (peer = back
// end address). Failing it exercises the skip-and-retry path: the LB must
// fail over to the next back end, and only 502 when every back end is cut.
var fpProxyDial = failpoint.New("lb/proxy/dial")

// Policy selects the back-end choice algorithm.
type Policy string

// Supported policies.
const (
	RoundRobin       Policy = "round-robin"
	LeastConnections Policy = "least-connections"
)

// Config configures a gateway load balancer.
type Config struct {
	// Addr is the HTTP listen address.
	Addr string
	// Backends are the initial back-end addresses (request router nodes).
	Backends []string
	// Policy is the routing policy (RoundRobin if empty).
	Policy Policy
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
	addr        string
	outstanding *metrics.Gauge
	served      *metrics.Counter
}

// LB is a running gateway load balancer.
type LB struct {
	cfg    Config
	ln     net.Listener
	server *http.Server
	client *http.Client
	logger *log.Logger

	mu       sync.Mutex
	backends []*backendState
	rrNext   int

	latency *metrics.Histogram

	registry *metrics.Registry
	tracer   *trace.Recorder

	requests      *metrics.Counter
	proxied       *metrics.Counter
	backendErrors *metrics.Counter
	noBackends    *metrics.Counter

	wg sync.WaitGroup
}

// newBackendState builds the per-backend series, labelled by address so the
// §V-A workload-distribution check reads straight off /metrics.
func (l *LB) newBackendState(addr string) *backendState {
	label := metrics.Label{Key: "backend", Value: addr}
	return &backendState{
		addr:        addr,
		outstanding: l.registry.Gauge("janus_lb_backend_outstanding", "requests in flight to one back end", label),
		served:      l.registry.Counter("janus_lb_backend_served_total", "requests completed by one back end", label),
	}
}

// New starts a load balancer.
func New(cfg Config) (*LB, error) {
	if cfg.Policy == "" {
		cfg.Policy = RoundRobin
	}
	if cfg.Policy != RoundRobin && cfg.Policy != LeastConnections {
		return nil, fmt.Errorf("lb: unknown policy %q", cfg.Policy)
	}
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
		latency:  metrics.NewHistogram(),
		registry: reg,
		tracer:   tracer,
		requests: reg.Counter("janus_lb_requests_total", "HTTP requests accepted at the gateway"),
		proxied:  reg.Counter("janus_lb_proxied_total", "exchanges attempted against back ends"),
		backendErrors: reg.Counter("janus_lb_backend_errors_total",
			"proxied exchanges that failed against a back end"),
		noBackends: reg.Counter("janus_lb_no_backends_total", "requests failed because no back end was usable"),
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 256,
				IdleConnTimeout:     30 * time.Second,
			},
			Timeout: 10 * time.Second,
		},
	}
	reg.RegisterHistogram("janus_lb_latency_ns", "end-to-end proxy latency in nanoseconds", l.latency)
	for _, b := range cfg.Backends {
		l.backends = append(l.backends, l.newBackendState(b))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", l.proxy)
	l.server = &http.Server{Handler: mux}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.server.Serve(ln)
	}()
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

// RemoveBackend deregisters a back-end node (auto-scaling detach).
func (l *LB) RemoveBackend(addr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.backends[:0]
	for _, b := range l.backends {
		if b.addr != addr {
			out = append(out, b)
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

// pick chooses a back end per the policy, skipping the given set.
func (l *LB) pick(skip map[*backendState]bool) *backendState {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.backends)
	if n == 0 {
		return nil
	}
	switch l.cfg.Policy {
	case LeastConnections:
		var best *backendState
		bestOut := int64(math.MaxInt64)
		for _, b := range l.backends {
			if skip[b] {
				continue
			}
			if out := b.outstanding.Value(); out < bestOut {
				best, bestOut = b, out
			}
		}
		return best
	default: // RoundRobin
		for i := 0; i < n; i++ {
			b := l.backends[l.rrNext]
			l.rrNext = (l.rrNext + 1) % n
			if !skip[b] {
				return b
			}
		}
		return nil
	}
}

func (l *LB) proxy(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	l.requests.Inc()
	if l.cfg.HopDelay != nil {
		l.cfg.HopDelay()
	}
	// The LB is the trace edge: honour a client-supplied trace ID, or draw
	// a sampling decision (one atomic load when sampling is disabled).
	tid, _ := trace.ParseID(req.Header.Get(trace.Header))
	if tid == 0 {
		if id, ok := l.tracer.Sample(); ok {
			tid = id
			req.Header.Set(trace.Header, trace.FormatID(tid))
		}
	}
	// A failed back end is skipped and the next one tried, until every
	// back end has had a turn.
	maxTries := max(len(l.Backends()), 1)
	skip := make(map[*backendState]bool, maxTries)
	var lastErr error
	for try := 0; try < maxTries; try++ {
		b := l.pick(skip)
		if b == nil {
			break
		}
		spanHdr, err := l.forward(w, req, b)
		if err != nil {
			lastErr = err
			l.backendErrors.Inc()
			skip[b] = true
			continue
		}
		d := time.Since(start)
		l.latency.RecordDuration(d)
		if tid != 0 {
			l.completeTrace(tid, spanHdr, b.addr, try, start, d)
		}
		return
	}
	l.noBackends.Inc()
	if lastErr == nil {
		lastErr = errors.New("lb: no back ends available")
	}
	http.Error(w, lastErr.Error(), http.StatusBadGateway)
}

// completeTrace assembles the request's trace: the LB's own span first,
// then every downstream span the router reported in the response header.
func (l *LB) completeTrace(tid uint64, spanHdr, backend string, retries int, start time.Time, d time.Duration) {
	downstream, err := trace.DecodeSpans(spanHdr)
	if err != nil {
		l.logger.Printf("lb: dropping malformed span header from %s: %v", backend, err)
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

// forward performs one proxied exchange against back end b, returning the
// X-Janus-Spans header the back end reported (empty when untraced).
func (l *LB) forward(w http.ResponseWriter, req *http.Request, b *backendState) (string, error) {
	b.outstanding.Add(1)
	defer b.outstanding.Add(-1)
	l.proxied.Inc()
	if fpProxyDial.Armed() {
		switch o := fpProxyDial.EvalPeer(b.addr); o.Kind {
		case failpoint.Error, failpoint.Partition:
			return "", o.Err
		case failpoint.Drop:
			return "", fmt.Errorf("lb: dial %s dropped by failpoint", b.addr)
		case failpoint.Delay:
			o.Sleep()
		}
	}
	url := "http://" + b.addr + req.URL.RequestURI()
	outReq, err := http.NewRequestWithContext(req.Context(), req.Method, url, req.Body)
	if err != nil {
		return "", err
	}
	outReq.Header = req.Header.Clone()
	resp, err := l.client.Do(outReq)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b.served.Inc()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return resp.Header.Get(trace.SpanHeader), nil
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

// Close shuts the load balancer down.
func (l *LB) Close() error {
	err := l.server.Close()
	l.wg.Wait()
	l.client.CloseIdleConnections()
	return err
}
