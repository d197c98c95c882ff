package scenario

import (
	"time"

	"repro/internal/metrics"
)

// HistWindow turns a cumulative latency histogram into a windowed quantile:
// each Advance call reports the quantile of only the observations recorded
// since the previous call. The autoscaler needs this because cumulative
// quantiles never come back down after a burst — a scale-in decision would
// otherwise wait forever for history to wash out.
type HistWindow struct {
	h         *metrics.Histogram
	bounds    []int64
	prev      []int64
	prevTotal int64
}

// newHistWindow wraps h. Bounds span 50µs to 60s in ×1.5 steps, matching
// the log-bucket resolution of the underlying histogram.
func newHistWindow(h *metrics.Histogram) *HistWindow {
	var bounds []int64
	for b := int64(50 * time.Microsecond); b <= int64(time.Minute); b += b / 2 {
		bounds = append(bounds, b)
	}
	return &HistWindow{h: h, bounds: bounds, prev: make([]int64, len(bounds))}
}

// advance closes the current window: it returns the q-quantile of the
// observations recorded since the previous Advance and how many there were
// (0 observations returns 0 duration). Not safe for concurrent use.
func (w *HistWindow) advance(q float64) (time.Duration, int64) {
	cur := w.h.CumulativeCounts(w.bounds)
	total := w.h.Count()
	n := total - w.prevTotal
	prev := w.prev
	w.prev = cur
	w.prevTotal = total
	if n <= 0 {
		return 0, 0
	}
	target := int64(float64(n)*q + 0.5)
	if target < 1 {
		target = 1
	}
	for i := range cur {
		if cur[i]-prev[i] >= target {
			return time.Duration(w.bounds[i]), n
		}
	}
	return time.Duration(w.bounds[len(w.bounds)-1]), n
}
