// Package trace implements the cheap sampled request tracing that spans the
// four Janus tiers (gateway LB → request router → QoS server, with the
// database hop folded into the server's span).
//
// A trace is born at the edge (normally the gateway LB, or the router when a
// client talks to it directly): the Sampler either assigns the request a
// non-zero 64-bit trace ID or leaves it untraced. The ID travels
//
//   - over HTTP in the Header / SpanHeader headers (LB ↔ router), and
//   - over UDP as the optional trailing trace field of wire.Request /
//     wire.Response (router ↔ QoS server; see internal/wire).
//
// Each hop that owns part of the request's lifetime contributes one Span
// (hop name, note, start, duration) and reports it upstream in-band:
// the QoS server echoes its worker-side processing time in the response
// datagram, and the router returns its own span plus the server's in the
// SpanHeader HTTP response header. The tier that started the trace assembles
// the spans into a completed Trace and hands it to its Recorder, which keeps
// the most recent traces in a lock-free ring plus the slowest ones in a
// top-k capture; both are dumpable as JSON from the debugz endpoint.
//
// The design constraint throughout is that the *untraced* hot path stays
// hot: deciding "not sampled" costs one atomic load (Sampler.Sample), and a
// request whose trace ID is zero takes no tracing branches beyond that
// comparison. BenchmarkSamplerDisabled measures the first; the benchmark's
// trace.overhead_frac row measures the whole traced path against the
// untraced one.
package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// HTTP headers used to propagate traces between the HTTP tiers.
const (
	// Header carries the 64-bit trace ID, formatted by FormatID, on a
	// request travelling down the stack (client → LB → router).
	Header = "X-Janus-Trace"
	// SpanHeader carries the JSON-encoded spans collected downstream,
	// travelling up the stack on the HTTP response (router → LB → client).
	SpanHeader = "X-Janus-Spans"
)

// Span is one hop's share of a request's lifetime.
type Span struct {
	// Hop names the tier that produced the span: "lb", "router",
	// "qosserver".
	Hop string `json:"hop"`
	// Note carries hop-specific detail ("backend=127.0.0.1:7101 retries=0",
	// "status=ok").
	Note string `json:"note,omitempty"`
	// Start is the span's start in Unix nanoseconds, measured on the clock
	// of the daemon that *recorded* the span. Spans measured on a remote
	// peer (the QoS server's worker span as seen by the router) inherit the
	// local observation start; only Dur crossed the wire.
	Start int64 `json:"start_ns"`
	// Dur is the span duration in nanoseconds.
	Dur int64 `json:"dur_ns"`
}

// HexID is a 64-bit trace ID that renders as fixed-width hex in JSON, so
// IDs can be grepped across the /debug/traces dumps of different daemons.
type HexID uint64

// MarshalJSON implements json.Marshaler.
func (h HexID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + FormatID(uint64(h)) + `"`), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (h *HexID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	id, err := ParseID(s)
	if err != nil {
		return err
	}
	*h = HexID(id)
	return nil
}

// Trace is one completed request: the ID that correlated it across tiers
// and the spans every hop contributed.
type Trace struct {
	ID HexID `json:"id"`
	// Dur is the end-to-end duration as seen by the recording tier
	// (normally the root span's duration). Record fills it from the spans
	// when zero.
	Dur   int64  `json:"dur_ns"`
	Spans []Span `json:"spans"`
}

// rootDur returns the best available end-to-end duration: the longest span.
func (t *Trace) rootDur() int64 {
	var d int64
	for _, s := range t.Spans {
		if s.Dur > d {
			d = s.Dur
		}
	}
	return d
}

// FormatID renders a trace ID as 16 hex digits.
func FormatID(id uint64) string {
	return fmt.Sprintf("%016x", id)
}

// ParseID parses a FormatID-formatted trace ID. An empty string parses to
// zero (untraced) without error.
func ParseID(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad id %q: %w", s, err)
	}
	return id, nil
}

// EncodeSpans renders spans as compact JSON for the SpanHeader header.
func EncodeSpans(spans []Span) string {
	b, err := json.Marshal(spans)
	if err != nil {
		return "" // unreachable: Span has no unmarshalable fields
	}
	return string(b)
}

// DecodeSpans parses a SpanHeader value. An empty value decodes to nil.
func DecodeSpans(s string) ([]Span, error) {
	if s == "" {
		return nil, nil
	}
	var spans []Span
	if err := json.Unmarshal([]byte(s), &spans); err != nil {
		return nil, fmt.Errorf("trace: bad span header: %w", err)
	}
	return spans, nil
}

// Sampler decides, per request, whether to start a trace. The decision is
// one atomic load when sampling is disabled (rate 0) — that is the
// steady-state production configuration, and the only cost tracing imposes
// on the untraced hot path.
type Sampler struct {
	// threshold is 0 when disabled; otherwise an ID mixed from the sequence
	// counter starts a trace when id <= threshold.
	threshold atomic.Uint64
	seq       atomic.Uint64
}

// NewSampler returns a sampler tracing the given fraction of requests
// (clamped to [0, 1]).
func NewSampler(rate float64) *Sampler {
	s := &Sampler{}
	s.SetRate(rate)
	return s
}

// SetRate changes the sampling fraction at runtime (clamped to [0, 1]).
func (s *Sampler) SetRate(rate float64) {
	switch {
	case rate <= 0 || math.IsNaN(rate):
		s.threshold.Store(0)
	case rate >= 1:
		s.threshold.Store(math.MaxUint64)
	default:
		s.threshold.Store(uint64(rate * float64(math.MaxUint64)))
	}
}

// Rate reports the current sampling fraction.
func (s *Sampler) Rate() float64 {
	t := s.threshold.Load()
	switch t {
	case 0:
		return 0
	case math.MaxUint64:
		return 1
	default:
		return float64(t) / float64(math.MaxUint64)
	}
}

// Sample draws one sampling decision. It returns a non-zero trace ID when
// the request should be traced. With sampling disabled it costs exactly one
// atomic load.
//
//janus:hotpath
func (s *Sampler) Sample() (uint64, bool) {
	t := s.threshold.Load()
	if t == 0 {
		return 0, false
	}
	id := splitmix64(s.seq.Add(1))
	if t != math.MaxUint64 && id > t {
		return 0, false
	}
	if id == 0 {
		id = 1 // 0 means "untraced" everywhere
	}
	return id, true
}

// splitmix64 is the finalizer of the SplitMix64 generator: a bijection on
// uint64, so IDs drawn from the sequence counter never collide within one
// sampler.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Ring is a lock-free ring buffer of completed traces: writers claim a slot
// with one atomic add and publish with one atomic pointer store, so trace
// completion never serializes request-handling goroutines.
type Ring struct {
	slots []atomic.Pointer[Trace]
	mask  uint64
	next  atomic.Uint64
}

// NewRing returns a ring holding the last n traces (n is rounded up to a
// power of two; minimum 16).
func NewRing(n int) *Ring {
	size := 16
	for size < n {
		size <<= 1
	}
	return &Ring{slots: make([]atomic.Pointer[Trace], size), mask: uint64(size - 1)}
}

// Put publishes a completed trace, evicting the oldest when full.
func (r *Ring) Put(t *Trace) {
	i := r.next.Add(1) - 1
	r.slots[i&r.mask].Store(t)
}

// Snapshot returns the buffered traces, newest first. Concurrent Puts may
// or may not be included.
func (r *Ring) Snapshot() []*Trace {
	end := r.next.Load()
	n := uint64(len(r.slots))
	if end < n {
		n = end
	}
	out := make([]*Trace, 0, n)
	for i := uint64(0); i < n; i++ {
		if t := r.slots[(end-1-i)&r.mask].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// topK keeps the k slowest traces seen. Offers below the current floor are
// rejected with one atomic load; only genuinely slow traces take the lock.
type topK struct {
	floor atomic.Int64 // smallest Dur retained once the capture is full
	mu    sync.Mutex
	k     int
	items []*Trace // min-heap by Dur
}

func newTopK(k int) *topK {
	if k <= 0 {
		k = 16
	}
	return &topK{k: k}
}

func (tk *topK) offer(t *Trace) {
	if t.Dur <= tk.floor.Load() {
		return
	}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	if len(tk.items) < tk.k {
		tk.items = append(tk.items, t)
		tk.up(len(tk.items) - 1)
	} else {
		if t.Dur <= tk.items[0].Dur {
			return
		}
		tk.items[0] = t
		tk.down(0)
	}
	if len(tk.items) == tk.k {
		tk.floor.Store(tk.items[0].Dur)
	}
}

func (tk *topK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if tk.items[p].Dur <= tk.items[i].Dur {
			return
		}
		tk.items[p], tk.items[i] = tk.items[i], tk.items[p]
		i = p
	}
}

func (tk *topK) down(i int) {
	n := len(tk.items)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && tk.items[l].Dur < tk.items[min].Dur {
			min = l
		}
		if r < n && tk.items[r].Dur < tk.items[min].Dur {
			min = r
		}
		if min == i {
			return
		}
		tk.items[i], tk.items[min] = tk.items[min], tk.items[i]
		i = min
	}
}

// snapshot returns the retained traces, slowest first.
func (tk *topK) snapshot() []*Trace {
	tk.mu.Lock()
	out := make([]*Trace, len(tk.items))
	copy(out, tk.items)
	tk.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Dur > out[j].Dur })
	return out
}

// Config tunes a Recorder.
type Config struct {
	// Rate is the initial sampling fraction in [0, 1]; 0 disables sampling
	// (traces arriving from upstream are still recorded).
	Rate float64
	// RingSize is the recent-trace ring capacity (default 256).
	RingSize int
	// TopK is the slow-trace capture size (default 16).
	TopK int
}

// Recorder owns one daemon's tracing state: the sampling gate for traces it
// originates, the ring of recent completed traces, and the slow-trace
// capture.
type Recorder struct {
	sampler  *Sampler
	ring     *Ring
	slow     *topK
	recorded atomic.Int64
}

// NewRecorder builds a recorder from cfg.
func NewRecorder(cfg Config) *Recorder {
	size := cfg.RingSize
	if size <= 0 {
		size = 256
	}
	return &Recorder{
		sampler: NewSampler(cfg.Rate),
		ring:    NewRing(size),
		slow:    newTopK(cfg.TopK),
	}
}

// Sample draws a sampling decision from the recorder's sampler.
//
//janus:hotpath
func (r *Recorder) Sample() (uint64, bool) { return r.sampler.Sample() }

// SetRate changes the sampling fraction at runtime.
func (r *Recorder) SetRate(rate float64) { r.sampler.SetRate(rate) }

// Rate reports the sampling fraction.
func (r *Recorder) Rate() float64 { return r.sampler.Rate() }

// Record files a completed trace into the ring and the slow capture.
// Traces without spans are dropped; a zero Dur is derived from the spans.
func (r *Recorder) Record(t *Trace) {
	if t == nil || len(t.Spans) == 0 {
		return
	}
	if t.Dur == 0 {
		t.Dur = t.rootDur()
	}
	r.recorded.Add(1)
	r.ring.Put(t)
	r.slow.offer(t)
}

// Recorded reports how many traces have been recorded since startup.
func (r *Recorder) Recorded() int64 { return r.recorded.Load() }

// Recent returns the buffered traces, newest first.
func (r *Recorder) Recent() []*Trace { return r.ring.Snapshot() }

// Slowest returns the slow-trace capture, slowest first.
func (r *Recorder) Slowest() []*Trace { return r.slow.snapshot() }

// Dump is the JSON document served at /debug/traces.
type Dump struct {
	Service  string   `json:"service,omitempty"`
	Rate     float64  `json:"sampling_rate"`
	Recorded int64    `json:"recorded"`
	Recent   []*Trace `json:"recent"`
	Slowest  []*Trace `json:"slowest"`
}

// Dump captures the recorder state for JSON exposition.
func (r *Recorder) Dump(service string) Dump {
	return Dump{
		Service:  service,
		Rate:     r.Rate(),
		Recorded: r.Recorded(),
		Recent:   r.Recent(),
		Slowest:  r.Slowest(),
	}
}
