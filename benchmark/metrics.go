package main

import (
	"math"
	"slices"
)

// metricDef names one reported metric. The tables below are the benchmark's
// contract with BENCHMARK.json; main_test.go fails when the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics carry none.
	Bound float64
}

// endToEnd is what a caller of qos_check sees. Every time-valued entry is
// calibrated (see calib.go); raw twins live in perLayer as raw.*.
//
// ok_frac stands in for the issue's failed_frac: the driver contract asks for
// metrics that are never 0, and failed_frac is 0 on every healthy run. One
// failed check in the smallest workload (about 190k checks with its set-ups)
// moves ok_frac by 5e-6, so the 1e-6 bound still means "no failure at all".
var endToEnd = []metricDef{
	{"throughput_cal_rps", "1/s", "higher", 0.10},
	{"check_p50_cal_us", "us", "lower", 0.10},
	{"check_p99_cal_us", "us", "lower", 0.25},
	{"allocs_per_check", "count", "lower", 0.01},
	{"alloc_bytes_per_check", "B", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"ok_frac", "ratio", "higher", 0.000001},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the ledger: isolated per-package timings (layers.go), the
// traced waterfall and per-check counts (trace.go, workload.go), process and
// machine state, and the uncalibrated twins of the end-to-end timings.
var perLayer = []metricDef{
	// Isolated phase: one goroutine, each package behind a stub of the
	// layer below.
	{"client.check_us", "us", "lower", 0},
	{"client.check_allocs", "count", "lower", 0},
	{"lb.proxy_us", "us", "lower", 0},
	{"lb.proxy_allocs", "count", "lower", 0},
	{"router.http_us", "us", "lower", 0},
	{"router.http_allocs", "count", "lower", 0},
	{"router.route_us", "us", "lower", 0},
	{"router.route_allocs", "count", "lower", 0},
	{"membership.pick_ns", "ns", "lower", 0},
	{"dns.resolve_ns", "ns", "lower", 0},
	{"transport.do_us", "us", "lower", 0},
	{"transport.do_allocs", "count", "lower", 0},
	{"wire.codec_ns", "ns", "lower", 0},
	{"wire.http_ns", "ns", "lower", 0},
	{"qosserver.udp_us", "us", "lower", 0},
	{"qosserver.decide_ns", "ns", "lower", 0},
	{"qosserver.miss_us", "us", "lower", 0},
	{"qosserver.miss_allocs", "count", "lower", 0},
	{"qosserver.resident_bytes_per_key", "B", "lower", 0},
	{"qosserver.sync_us_per_key", "us", "lower", 0},
	{"table.get_ns", "ns", "lower", 0},
	{"table.getorcreate_ns", "ns", "lower", 0},
	{"bucket.tryconsume_ns", "ns", "lower", 0},
	{"store.get_us", "us", "lower", 0},
	{"store.put_us", "us", "lower", 0},
	{"minisql.select_us", "us", "lower", 0},
	// Traced run: waterfall self times and the histogram split of the
	// router's share.
	{"client.self_us", "us", "lower", 0},
	{"lb.self_us", "us", "lower", 0},
	{"router.self_us", "us", "lower", 0},
	{"transport.wire_us", "us", "lower", 0},
	{"qosserver.sojourn_us", "us", "lower", 0},
	{"qosserver.decide_us", "us", "lower", 0},
	{"closure.gap_frac", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.joined_frac", "ratio", "higher", 0},
	// Work per check, from the packages' Stats().
	{"lb.proxied_per_check", "count", "lower", 0},
	{"lb.backend_errors", "count", "lower", 0},
	{"router.timeouts", "count", "lower", 0},
	{"router.default_replies", "count", "lower", 0},
	{"transport.attempts_per_check", "count", "lower", 0},
	{"transport.timeouts_per_check", "count", "lower", 0},
	{"qosserver.db_queries_per_check", "count", "lower", 0},
	{"qosserver.default_hits_per_check", "count", "lower", 0},
	{"qosserver.degraded", "count", "lower", 0},
	{"qosserver.dropped", "count", "lower", 0},
	{"qosserver.table_len", "count", "lower", 0},
	{"qosserver.sync_keys_per_check", "count", "lower", 0},
	// Process and machine.
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.heap_inuse_mb", "MB", "lower", 0},
	{"runtime.goroutines", "count", "lower", 0},
	{"calib.http_rtt_us", "us", "lower", 0},
	{"calib.spread_frac", "ratio", "lower", 0},
	// Uncalibrated twins and the gated ratio's complement.
	{"raw.throughput_rps", "1/s", "higher", 0},
	{"raw.check_p50_us", "us", "lower", 0},
	{"raw.check_p99_us", "us", "lower", 0},
	{"raw.check_p999_us", "us", "lower", 0},
	{"raw.cpu_us_per_check", "us", "lower", 0},
	{"failed_frac", "ratio", "lower", 0},
}

// mval is one metric in the result line.
type mval struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick renders values for exactly the metrics in defs; a metric the run did
// not produce is reported as missing rather than silently as 0.
func pick(defs []metricDef, values map[string]float64) (map[string]mval, []string) {
	out := make(map[string]mval, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = mval{Value: v, Unit: d.Unit}
	}
	return out, missing
}

// quantile returns the q-quantile (0..1) of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle of vs (mean of the two middles when even)
// without reordering the caller's slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// midmean is the interquartile mean: the mean of the middle half of vs. Over
// a run's windows it shrugs off a disturbed window like the median does, but
// averages ten windows where the median rests on two; on dns-miss, whose
// per-window p99 climbs with the heap, that halves the run-to-run spread.
func midmean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid))
}

// quartiles mirrors Python's statistics.quantiles(vs, n=4) (the exclusive
// method), which is what the driver uses for its spread check.
func quartiles(vs []float64) (q1, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return (q3 - q1) / median(vs)
}
