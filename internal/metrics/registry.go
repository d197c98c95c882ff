package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name="value" dimension attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// kind discriminates the exposition format of a family.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) promType() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one labelled instance within a family. Exactly one of the
// payload fields is set, matching the family kind.
type series struct {
	labels string // rendered {k="v",...} suffix, "" when unlabelled
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   kind
	series map[string]*series
	// scale converts recorded int64 values to the exposed unit for
	// histogram families (1e-9 exposes nanosecond recordings as seconds).
	// 0 means unscaled: values render as plain integers.
	scale float64
}

// Registry is a named collection of counters, gauges, and histograms with
// optional labels, exposable in the Prometheus text format. Metric handles
// returned by the getters are the same lock-free types used standalone
// (Counter, Gauge, Histogram), so registering a hot-path counter adds no
// per-increment cost — the registry is only locked at registration and
// exposition time.
//
// Registering the same name+labels twice returns the original handle, which
// lets components re-attach to a shared registry idempotently. Registering
// the same name with a different metric kind panics: that is a programming
// error that would corrupt the exposition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels renders a sorted, escaped {k="v",...} suffix.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// get returns the series for name+labels, creating family and series as
// needed. It panics on a kind conflict.
func (r *Registry) get(name, help string, k kind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != k {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.kind.promType(), k.promType()))
	}
	ls := renderLabels(labels)
	s := f.series[ls]
	if s == nil {
		s = &series{labels: ls}
		switch k {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = NewHistogram()
		}
		f.series[ls] = s
	}
	return s
}

// Counter returns the counter registered under name+labels, creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.get(name, help, kindCounter, labels).c
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.get(name, help, kindGauge, labels).g
}

// Histogram returns the histogram registered under name+labels, creating it
// on first use. It is exported as a Prometheus summary (quantiles + _sum +
// _count) because the log-bucketed layout has too many buckets to ship raw.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.get(name, help, kindHistogram, labels).h
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time — used for values owned elsewhere (view epoch, table size).
// Re-registering replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.get(name, help, kindGaugeFunc, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// RegisterHistogram attaches an existing histogram under name+labels, so
// components that already own a Histogram can expose it without re-plumbing.
// Re-registering replaces the histogram.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) {
	s := r.get(name, help, kindHistogram, labels)
	r.mu.Lock()
	s.h = h
	r.mu.Unlock()
}

// HistogramScaled returns the histogram registered under name+labels with
// an exposition scale, creating it on first use. The scale is applied at
// exposition time: every value, sum, and bucket bound of the family renders
// multiplied by it. Histograms record int64 (typically nanoseconds); a scale
// of 1e-9 exposes the family in seconds, matching the Prometheus base-unit
// convention for *_seconds names. The scale is a family property: asking for
// the family with a different non-zero scale panics.
func (r *Registry) HistogramScaled(name, help string, scale float64, labels ...Label) *Histogram {
	s := r.get(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f.scale != 0 && scale != 0 && f.scale != scale {
		panic(fmt.Sprintf("metrics: %s registered with scales %g and %g", name, f.scale, scale))
	}
	if scale != 0 {
		f.scale = scale
	}
	return s.h
}

// snapshotFamilies copies the family structure under the lock so exposition
// renders without holding it (GaugeFunc callbacks may take their own locks).
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		cp := &family{name: f.name, help: f.help, kind: f.kind, scale: f.scale, series: make(map[string]*series, len(f.series))}
		for ls, s := range f.series {
			// Copy the series value under the lock: fn and h may be replaced
			// by GaugeFunc/RegisterHistogram after creation.
			sc := *s
			cp.series[ls] = &sc
		}
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WriteProm renders the registry in the Prometheus text exposition format
// (version 0.0.4): # HELP / # TYPE preambles followed by one line per
// series. Histogram families render cumulative `_bucket`/`le` series over
// the fixed promBounds ladder (aggregatable across daemons) plus the
// legacy p50/p90/p99/p99.9 quantile lines, `_sum`, and `_count`.
func (r *Registry) WriteProm(w io.Writer) {
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind.promType())
		keys := make([]string, 0, len(f.series))
		for ls := range f.series {
			keys = append(keys, ls)
		}
		sort.Strings(keys)
		for _, ls := range keys {
			s := f.series[ls]
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, ls, s.c.Value())
			case kindGauge:
				fmt.Fprintf(w, "%s%s %d\n", f.name, ls, s.g.Value())
			case kindGaugeFunc:
				if s.fn != nil {
					fmt.Fprintf(w, "%s%s %g\n", f.name, ls, s.fn())
				}
			case kindHistogram:
				writePromHistogram(w, f.name, ls, s.h, f.scale)
			}
		}
	}
}

// promBounds is the fixed 1-2-5 bucket ladder every histogram family
// exposes, in RECORDED units (12 decades: 1 ns to ~500 s for nanosecond
// recordings; 1 to 5·10¹¹ for plain counts). The ladder is identical for
// every daemon and every family, which is the whole point: cumulative
// counts at identical bounds sum correctly across a fleet, where the
// per-daemon summary quantiles never could.
var promBounds = func() []int64 {
	out := make([]int64, 0, 36)
	decade := int64(1)
	for d := 0; d < 12; d++ {
		out = append(out, decade, 2*decade, 5*decade)
		decade *= 10
	}
	return out
}()

// mergeLabel splices one more k="v" pair into a rendered label suffix.
func mergeLabel(labels, kv string) string {
	if labels == "" {
		return "{" + kv + "}"
	}
	return labels[:len(labels)-1] + "," + kv + "}"
}

// formatScaled renders a recorded value in the family's exposed unit:
// plain integer when unscaled, value×scale otherwise. 12 significant
// digits round away binary float artifacts (5×10⁻⁸ must render "5e-08",
// not "5.0000000000000004e-08") while keeping every distinguishable
// recorded value distinguishable in the exposition.
func formatScaled(v int64, scale float64) string {
	if scale == 0 {
		return strconv.FormatInt(v, 10)
	}
	return strconv.FormatFloat(float64(v)*scale, 'g', 12, 64)
}

// writePromHistogram renders one histogram series: cumulative buckets over
// the promBounds ladder, the legacy quantile lines, sum, and count.
func writePromHistogram(w io.Writer, name, labels string, h *Histogram, scale float64) {
	counts := h.CumulativeCounts(promBounds)
	for i, b := range promBounds {
		le := mergeLabel(labels, `le="`+formatScaled(b, scale)+`"`)
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, le, counts[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labels, `le="+Inf"`), h.Count())
	for _, q := range [...]struct {
		label string
		p     float64
	}{{"0.5", 50}, {"0.9", 90}, {"0.99", 99}, {"0.999", 99.9}} {
		ql := mergeLabel(labels, `quantile="`+q.label+`"`)
		fmt.Fprintf(w, "%s%s %s\n", name, ql, formatScaled(h.Percentile(q.p), scale))
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatScaled(h.Sum(), scale))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
}

// Handler returns an http.Handler serving the registry at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteProm(w)
	})
}
