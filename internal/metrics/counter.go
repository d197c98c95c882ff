package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1 and returns the new value.
//
//janus:hotpath
func (c *Counter) Inc() int64 { return c.v.Add(1) }

// Add adds delta and returns the new value.
//
//janus:hotpath
func (c *Counter) Add(delta int64) int64 { return c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset sets the counter to zero and returns the prior value.
func (c *Counter) Reset() int64 { return c.v.Swap(0) }

// Gauge is an atomically settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta and returns the new value.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// TimeSeries accumulates per-interval event counts, e.g. requests per second
// for the Fig 13a accepted/rejected traces. Observations are assigned to a
// fixed-width interval based on the observation time.
type TimeSeries struct {
	mu       sync.Mutex
	interval time.Duration
	origin   time.Time
	buckets  map[int64]float64
}

// NewTimeSeries creates a series with the given bucket width, anchored at
// origin.
func NewTimeSeries(origin time.Time, interval time.Duration) *TimeSeries {
	if interval <= 0 {
		interval = time.Second
	}
	return &TimeSeries{interval: interval, origin: origin, buckets: make(map[int64]float64)}
}

// Observe adds value to the bucket containing t. Times before origin are
// folded into the first bucket.
func (ts *TimeSeries) Observe(t time.Time, value float64) {
	idx := int64(t.Sub(ts.origin) / ts.interval)
	if idx < 0 {
		idx = 0
	}
	ts.mu.Lock()
	ts.buckets[idx] += value
	ts.mu.Unlock()
}

// Len returns the number of buckets from origin through the last non-empty
// bucket.
func (ts *TimeSeries) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var max int64 = -1
	for k := range ts.buckets {
		if k > max {
			max = k
		}
	}
	return int(max + 1)
}

// Values returns the dense per-bucket values from origin through the last
// non-empty bucket.
func (ts *TimeSeries) Values() []float64 {
	n := ts.Len()
	out := make([]float64, n)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for k, v := range ts.buckets {
		if int(k) < n {
			out[k] = v
		}
	}
	return out
}

// Interval returns the bucket width.
func (ts *TimeSeries) Interval() time.Duration { return ts.interval }
