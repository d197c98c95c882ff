package qosserver

// CoDel queue management for the intake FIFO (DESIGN.md §3.4).
//
// The seed FIFO dropped datagrams only when it was FULL — the bufferbloat
// failure mode: under sustained overload a drop-when-full queue sits at its
// maximum length, so every admitted request pays worst-case queueing delay
// while throughput stays pinned at the service rate ("Managing Bufferbloat
// in Cloud Storage Systems", PAPERS.md). CoDel (RFC 8289) controls the
// queue by the one signal that actually matters — how long packets SIT in
// it — which PR 8 already measures as the queue-stage sojourn.
//
// The control law, verbatim from the RFC, adapted to Janus's degraded-mode
// answer:
//
//   - While the sojourn of dequeued packets stays below Target, the
//     controller is idle.
//   - When sojourn has remained at or above Target for a full Interval,
//     the controller enters the dropping state and degrades the packet at
//     hand: the worker answers it immediately with the default reply
//     (StatusDegraded) instead of running the admission decision. Janus
//     never silently discards a queued request — the paper's degraded-mode
//     contract is that the client always gets a fast answer it can act on.
//   - In the dropping state the next degrade is scheduled at
//     Interval/sqrt(count): each successive degrade tightens the cadence,
//     so the shed rate ramps until the queue drains back to Target.
//   - The first dequeue whose sojourn is below Target exits the dropping
//     state. A controller that re-enters soon after (within 16 Intervals)
//     resumes near its previous cadence instead of relearning it — the
//     RFC's hysteresis for on/off overload.
//
// The controller is a pure state machine over (sojournNs, nowNs) pairs: no
// clock reads, no allocation, no goroutines. Determinism is what the
// property tests in codel_test.go exploit — synthetic sojourn schedules
// replay byte-for-byte identically under the sim clock.

import (
	"math"
	"sync"
	"time"
)

// CoDel defaults (RFC 8289 §4.4 scaled to a memory-speed decision service:
// a 1ms queue on a ~10µs service path is already two decades of slack).
const (
	// DefaultCodelTarget is the acceptable standing queue sojourn.
	DefaultCodelTarget = time.Millisecond
	// DefaultCodelInterval is the sliding window the sojourn must exceed
	// Target for before shedding starts; it should be on the order of a
	// worst-case client round trip.
	DefaultCodelInterval = 100 * time.Millisecond
)

// codel is the intake FIFO's CoDel controller. Every mutable field is
// guarded by mu, held for a few integer compares per dequeue.
type codel struct {
	targetNs   int64
	intervalNs int64

	mu sync.Mutex
	// firstAboveNs is the deadline by which a sojourn excursion above
	// Target becomes a standing queue (0 while sojourn is below Target).
	firstAboveNs int64
	// dropping is the RFC's dropping state.
	dropping bool
	// dropNextNs schedules the next degrade while dropping.
	dropNextNs int64
	// count is the degrades issued in the current dropping episode; the
	// control law cadence is Interval/sqrt(count).
	count int64
	// lastCount remembers count across episodes for the re-entry
	// hysteresis.
	lastCount int64
}

// newCodel builds a controller; target <= 0 or interval <= 0 panic (New
// resolves the defaults before this).
func newCodel(target, interval time.Duration) *codel {
	if target <= 0 || interval <= 0 {
		panic("qosserver: codel target and interval must be positive")
	}
	return &codel{targetNs: int64(target), intervalNs: int64(interval)}
}

// onDequeue consumes one dequeued packet's queue sojourn and reports
// whether the worker must answer it degraded. It is the per-packet CoDel
// decision — one short lock, integer compares, and at most one
// square root; allocation-free (pinned by TestAllocPinCodelDecide).
//
//janus:hotpath
func (c *codel) onDequeue(sojournNs, nowNs int64) bool {
	c.mu.Lock()
	degrade := c.step(sojournNs, nowNs)
	c.mu.Unlock()
	return degrade
}

// step is the control law proper; callers hold mu. Split from onDequeue so
// the property tests can drive the naked state machine.
func (c *codel) step(sojournNs, nowNs int64) bool {
	if sojournNs < c.targetNs {
		// Queue is healthy: leave the dropping state (if any) and forget
		// the excursion clock.
		c.firstAboveNs = 0
		c.dropping = false
		return false
	}
	if c.firstAboveNs == 0 {
		// First dequeue at or above Target: arm the excursion deadline.
		// Excursions shorter than one Interval are bursts, not standing
		// queues — they pass untouched.
		c.firstAboveNs = nowNs + c.intervalNs
		return false
	}
	if c.dropping {
		if nowNs < c.dropNextNs {
			return false
		}
		// Cadence due: degrade and tighten per the inverse-sqrt law.
		c.count++
		c.dropNextNs += controlLaw(c.intervalNs, c.count)
		return true
	}
	if nowNs < c.firstAboveNs {
		return false
	}
	// Sojourn has been at or above Target for a full Interval: enter the
	// dropping state and degrade the packet at hand. If the controller was
	// dropping recently, resume from the cadence it had reached (the RFC's
	// delta hysteresis) rather than relearning from count = 1.
	c.dropping = true
	delta := c.count - c.lastCount
	c.count = 1
	if delta > 1 && nowNs-c.dropNextNs < 16*c.intervalNs {
		c.count = delta
	}
	c.lastCount = c.count
	c.dropNextNs = nowNs + controlLaw(c.intervalNs, c.count)
	return true
}

// controlLaw is the RFC 8289 drop cadence: Interval/sqrt(count).
//
//janus:hotpath
func controlLaw(intervalNs, count int64) int64 {
	return int64(float64(intervalNs) / math.Sqrt(float64(count)))
}

// snapshot reports the controller's observable state for /debug/qos and
// the state gauge.
func (c *codel) snapshot() (dropping bool, count int64) {
	c.mu.Lock()
	dropping, count = c.dropping, c.count
	c.mu.Unlock()
	return dropping, count
}
