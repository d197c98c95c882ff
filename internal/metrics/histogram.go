// Package metrics provides the measurement primitives used throughout the
// Janus reproduction: latency histograms with percentile estimation, rate
// counters, running statistics, and fixed-interval time series.
//
// The histogram is a log-bucketed design (HDR-style) so that a single
// instance can record values spanning nanoseconds to minutes with bounded
// relative error and O(1) recording cost. All types in this package are safe
// for concurrent use unless stated otherwise.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// histogram bucket layout: values are bucketed by (exponent, mantissa-slot).
// Each power of two is divided into subBuckets linear slots, giving a
// worst-case relative error of 1/subBuckets (~1.5% with 64 slots).
const (
	histSubBucketBits = 6
	histSubBuckets    = 1 << histSubBucketBits // 64
	histExponents     = 48                     // covers values up to ~2^48 (~3.2 days in ns)
	histBuckets       = histExponents * histSubBuckets
)

// Histogram is a lock-free, log-bucketed histogram of non-negative int64
// values (typically latencies in nanoseconds). The zero value is NOT ready
// for use; call NewHistogram.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	total  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// bucketIndex maps a value to its bucket. Values <= 0 map to bucket 0.
func bucketIndex(v int64) int {
	if v < histSubBuckets {
		if v < 0 {
			v = 0
		}
		return int(v) // exact buckets for small values
	}
	// Position of the highest set bit.
	exp := 63 - bits.LeadingZeros64(uint64(v))
	// Take the subBucketBits bits below the leading bit as the linear slot.
	slot := (v >> (uint(exp) - histSubBucketBits)) & (histSubBuckets - 1)
	idx := (exp-histSubBucketBits+1)*histSubBuckets + int(slot)
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketLow returns the lowest value contained in bucket idx.
func bucketLow(idx int) int64 {
	if idx < histSubBuckets {
		return int64(idx)
	}
	exp := idx/histSubBuckets + histSubBucketBits - 1
	slot := idx % histSubBuckets
	return (int64(1) << uint(exp)) | (int64(slot) << (uint(exp) - histSubBucketBits))
}

// bucketHigh returns the highest value contained in bucket idx.
func bucketHigh(idx int) int64 {
	if idx < histSubBuckets {
		return int64(idx)
	}
	exp := idx/histSubBuckets + histSubBucketBits - 1
	width := int64(1) << (uint(exp) - histSubBucketBits)
	return bucketLow(idx) + width - 1
}

// Record adds one observation of v.
//
//janus:hotpath
func (h *Histogram) Record(v int64) {
	h.counts[bucketIndex(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// RecordDuration adds one observation of d in nanoseconds.
//
//janus:hotpath
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of all recorded values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the arithmetic mean of recorded values, or 0 if empty.
func (h *Histogram) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Min returns the smallest recorded value, or 0 if empty.
func (h *Histogram) Min() int64 {
	if h.total.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest recorded value, or 0 if empty.
func (h *Histogram) Max() int64 {
	if h.total.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) of the
// recorded values. The estimate is the upper bound of the bucket containing
// the target rank, clamped to the recorded max, so the error is at most the
// bucket width (~1.5% relative). Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			v := bucketHigh(i)
			if mx := h.max.Load(); v > mx {
				v = mx
			}
			if mn := h.min.Load(); v < mn {
				v = mn
			}
			return v
		}
	}
	return h.max.Load()
}

// Percentile is Quantile with p expressed in percent (e.g. 99.9).
func (h *Histogram) Percentile(p float64) int64 { return h.Quantile(p / 100) }

// CumulativeCounts returns, for each bound (ascending), the number of
// recorded observations v with v <= bound — the Prometheus cumulative
// `_bucket` semantics. An observation is attributed to a bound when its
// whole log-bucket fits under it (bucketHigh <= bound), so the answer is
// deterministic and identical for every daemon regardless of the exact
// values recorded — which is what makes the exported series aggregatable
// across the fleet. One pass over the bucket array.
func (h *Histogram) CumulativeCounts(bounds []int64) []int64 {
	out := make([]int64, len(bounds))
	var cum int64
	bi := 0
	for i := 0; i < histBuckets && bi < len(bounds); i++ {
		hi := bucketHigh(i)
		for bi < len(bounds) && hi > bounds[bi] {
			out[bi] = cum
			bi++
		}
		if bi >= len(bounds) {
			break
		}
		cum += h.counts[i].Load()
	}
	for ; bi < len(bounds); bi++ {
		out[bi] = cum
	}
	return out
}

// Merge adds all observations recorded in other into h. Concurrent Records
// on other during the merge may be partially included.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	var added, sum int64
	for i := 0; i < histBuckets; i++ {
		c := other.counts[i].Load()
		if c == 0 {
			continue
		}
		h.counts[i].Add(c)
		added += c
	}
	sum = other.sum.Load()
	h.total.Add(added)
	h.sum.Add(sum)
	if added > 0 {
		for {
			cur := h.min.Load()
			v := other.min.Load()
			if v >= cur || h.min.CompareAndSwap(cur, v) {
				break
			}
		}
		for {
			cur := h.max.Load()
			v := other.max.Load()
			if v <= cur || h.max.CompareAndSwap(cur, v) {
				break
			}
		}
	}
}

// Reset discards all recorded observations.
func (h *Histogram) Reset() {
	for i := 0; i < histBuckets; i++ {
		h.counts[i].Store(0)
	}
	h.total.Store(0)
	h.sum.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
}

// Snapshot captures a point-in-time summary of a histogram.
type Snapshot struct {
	Count int64
	Mean  float64
	Min   int64
	Max   int64
	P50   int64
	P90   int64
	P99   int64
	P999  int64
}

// Snapshot returns a consistent-enough summary for reporting. Recording that
// races with Snapshot may shift counts by a few observations.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
	}
}

// String renders the snapshot with durations in human units.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%s min=%s p50=%s p90=%s p99=%s p99.9=%s max=%s",
		s.Count,
		time.Duration(int64(s.Mean)).Round(time.Microsecond),
		time.Duration(s.Min).Round(time.Microsecond),
		time.Duration(s.P50).Round(time.Microsecond),
		time.Duration(s.P90).Round(time.Microsecond),
		time.Duration(s.P99).Round(time.Microsecond),
		time.Duration(s.P999).Round(time.Microsecond),
		time.Duration(s.Max).Round(time.Microsecond))
}

// Welford implements numerically stable streaming mean/variance. It is
// guarded by a mutex and safe for concurrent use.
type Welford struct {
	mu    sync.Mutex
	n     int64
	mean  float64
	m2    float64
	min   float64
	max   float64
	first bool
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.first {
		w.first = true
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { w.mu.Lock(); defer w.mu.Unlock(); return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { w.mu.Lock(); defer w.mu.Unlock(); return w.mean }

// variance returns the population variance.
func (w *Welford) variance() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.variance()) }

// Min returns the smallest observation (0 if empty).
func (w *Welford) Min() float64 { w.mu.Lock(); defer w.mu.Unlock(); return w.min }

// Max returns the largest observation (0 if empty).
func (w *Welford) Max() float64 { w.mu.Lock(); defer w.mu.Unlock(); return w.max }
