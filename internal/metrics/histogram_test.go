package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram not zero: %+v", h.Snapshot())
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("quantile on empty = %d, want 0", q)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(1234)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got := h.Quantile(q); got != 1234 {
			t.Errorf("Quantile(%v) = %d, want 1234", q, got)
		}
	}
	if h.Min() != 1234 || h.Max() != 1234 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// Values below histSubBuckets are bucketed exactly.
	h := NewHistogram()
	for v := int64(0); v < histSubBuckets; v++ {
		h.Record(v)
	}
	if got := h.Quantile(0.5); got != histSubBuckets/2-1 && got != histSubBuckets/2 {
		t.Errorf("median = %d", got)
	}
	if h.Min() != 0 || h.Max() != histSubBuckets-1 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	// Negative values land in bucket 0; quantile reports within [min,max].
	if got := h.Quantile(0.5); got != -5 {
		t.Errorf("quantile clamped to min: got %d want -5", got)
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 63, 64, 65, 127, 128, 1000, 4096, 1 << 20, 1 << 30, 1 << 40} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestBucketBoundsContainValue(t *testing.T) {
	f := func(v int64) bool {
		if v < 0 {
			v = -v
		}
		v %= 1 << 45
		idx := bucketIndex(v)
		return bucketLow(idx) <= v && v <= bucketHigh(idx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileRelativeError(t *testing.T) {
	// Property: for uniform random data the histogram quantile must be
	// within ~2x bucket width of the exact quantile.
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	values := make([]int64, 20000)
	for i := range values {
		v := int64(rng.Intn(10_000_000)) + 1
		values[i] = v
		h.Record(v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for _, p := range []float64{50, 90, 99, 99.9} {
		exact := values[int(math.Ceil(p/100*float64(len(values))))-1] // nearest rank
		approx := h.Percentile(p)
		relErr := math.Abs(float64(approx-exact)) / float64(exact)
		if relErr > 0.04 {
			t.Errorf("p%v: exact=%d approx=%d relErr=%.4f", p, exact, approx, relErr)
		}
	}
}

func TestHistogramMergeEqualsCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b, both := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(1_000_000))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		both.Record(v)
	}
	merged := NewHistogram()
	merged.Merge(a)
	merged.Merge(b)
	if merged.Count() != both.Count() || merged.Sum() != both.Sum() {
		t.Fatalf("merge count/sum mismatch: %d/%d vs %d/%d", merged.Count(), merged.Sum(), both.Count(), both.Sum())
	}
	for _, p := range []float64{50, 90, 99} {
		if merged.Percentile(p) != both.Percentile(p) {
			t.Errorf("P%v: merged=%d combined=%d", p, merged.Percentile(p), both.Percentile(p))
		}
	}
	if merged.Min() != both.Min() || merged.Max() != both.Max() {
		t.Errorf("min/max mismatch")
	}
}

func TestHistogramMergeNil(t *testing.T) {
	h := NewHistogram()
	h.Record(5)
	h.Merge(nil) // must not panic
	if h.Count() != 1 {
		t.Fatal("merge(nil) changed count")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(100)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("reset incomplete: %+v", h.Snapshot())
	}
	h.Record(7)
	if h.Min() != 7 || h.Max() != 7 {
		t.Fatalf("post-reset min/max wrong: %d/%d", h.Min(), h.Max())
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	const workers = 8
	const per = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(int64(rng.Intn(1_000_000)))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
}

func TestSnapshotString(t *testing.T) {
	h := NewHistogram()
	h.RecordDuration(1500 * time.Microsecond)
	s := h.Snapshot().String()
	if s == "" {
		t.Fatal("empty string")
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range data {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("n = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-9 {
		t.Errorf("mean = %v", w.Mean())
	}
	if math.Abs(w.StdDev()-2) > 1e-9 {
		t.Errorf("stddev = %v", w.StdDev())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordMatchesDirectComputation(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
			// Bound magnitude to keep the naive computation stable.
			xs[i] = math.Mod(xs[i], 1e6)
		}
		var w Welford
		var sum float64
		for _, x := range xs {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var m2 float64
		for _, x := range xs {
			m2 += (x - mean) * (x - mean)
		}
		variance := m2 / float64(len(xs))
		scale := math.Max(1, variance)
		return math.Abs(w.Mean()-mean) < 1e-6*math.Max(1, math.Abs(mean)) &&
			math.Abs(w.variance()-variance) < 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
