// Package bucket implements the leaky-bucket QoS algorithm at the heart of
// Janus (paper §II-C, Fig 3).
//
// Each QoS rule is represented by one bucket with a capacity C and a refill
// rate A (credits per second — the access rate the user purchased). The
// available credit f(t) follows equation (1) of the paper,
//
//	f(t) = C + (A - B) * t
//
// clamped per equation (2) to 0 <= f(t) <= C, where B is the consume rate.
// Credit accumulates while the user is idle, permitting occasional bursts up
// to C, and depletes to zero under sustained overload, throttling the user
// to exactly A requests per second.
//
// Refill is lazy: the credit owed since the last interaction is applied
// when the bucket is next touched, so f(t) is exact at any instant and no
// thread has to sweep the buckets (the paper's "house-keeping thread ...
// refills the leaky buckets ... with predefined intervals" survives only as
// an arm of BenchmarkAblationRefillStrategy).
//
// All methods are safe for concurrent use.
package bucket

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Rule describes the QoS contract for one key: the leaky bucket geometry
// plus the key itself. It mirrors the four-column qos_rules database table
// of the paper (§III-D): key, refill rate, capacity, remaining credit.
type Rule struct {
	// Key is the QoS key (user id, IP address, user+database, ...).
	Key string
	// RefillRate is the purchased access rate in credits per second.
	RefillRate float64
	// Capacity is the maximum credit the bucket may hold.
	Capacity float64
	// Credit is the remaining credit (used when loading from a checkpoint;
	// a fresh rule normally starts with Credit == Capacity).
	Credit float64
}

// Validate reports whether the rule's parameters are usable.
func (r Rule) Validate() error {
	switch {
	case r.Key == "":
		return fmt.Errorf("bucket: rule has empty key")
	case math.IsNaN(r.RefillRate) || math.IsNaN(r.Capacity) || math.IsNaN(r.Credit):
		// NaN slips through every ordered comparison below, so it must be
		// rejected explicitly: a NaN credit or capacity poisons clamp().
		return fmt.Errorf("bucket: rule %q has NaN parameter", r.Key)
	case r.RefillRate < 0:
		return fmt.Errorf("bucket: rule %q has negative refill rate %v", r.Key, r.RefillRate)
	case r.Capacity < 0:
		return fmt.Errorf("bucket: rule %q has negative capacity %v", r.Key, r.Capacity)
	case r.Credit < 0 || r.Credit > r.Capacity:
		return fmt.Errorf("bucket: rule %q has credit %v outside [0,%v]", r.Key, r.Credit, r.Capacity)
	default:
		return nil
	}
}

// DenyAll is the default rule combination that denies access (paper §II-D:
// "zero capacity and zero refill rate to deny access").
func DenyAll(key string) Rule { return Rule{Key: key} }

// LimitedGuest is the default rule combination that grants limited access
// (paper §II-D: "a small capacity and a small refill rate").
func LimitedGuest(key string, rate, capacity float64) Rule {
	return Rule{Key: key, RefillRate: rate, Capacity: capacity, Credit: capacity}
}

// Bucket is a concurrency-safe leaky bucket with constant-rate refill.
type Bucket struct {
	mu         sync.Mutex
	capacity   float64
	refillRate float64 // credits per second
	credit     float64
	last       time.Time // instant credit was last brought current
}

// New creates a bucket from a rule. If the rule carries no explicit credit
// and was not loaded from a checkpoint, pass rule.Credit = rule.Capacity for
// the paper's "initially fully filled" behaviour. now anchors the refill
// clock.
func New(rule Rule, now time.Time) *Bucket {
	return &Bucket{
		capacity:   rule.Capacity,
		refillRate: rule.RefillRate,
		credit:     clamp(rule.Credit, rule.Capacity),
		last:       now,
	}
}

// NewFull creates a bucket that starts at full capacity.
func NewFull(key string, rate, capacity float64, now time.Time) *Bucket {
	return New(Rule{Key: key, RefillRate: rate, Capacity: capacity, Credit: capacity}, now)
}

func clamp(v, capacity float64) float64 {
	if v < 0 {
		return 0
	}
	if v > capacity {
		return capacity
	}
	return v
}

// advanceLocked brings credit current to now. Callers must hold b.mu.
func (b *Bucket) advanceLocked(now time.Time) {
	if now.Before(b.last) {
		// Clock went backwards (or an out-of-order call): keep credit,
		// re-anchor so a future advance does not double-refill.
		b.last = now
		return
	}
	elapsed := now.Sub(b.last).Seconds()
	b.credit = clamp(b.credit+elapsed*b.refillRate, b.capacity)
	b.last = now
}

// TryConsume attempts to spend n credits at time now. It returns true and
// deducts the credit when at least n credits are available (paper: "If the
// current credit is greater than zero, it returns TRUE"). n must be > 0.
//
//janus:hotpath
func (b *Bucket) TryConsume(n float64, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked(now)
	if b.credit >= n && n > 0 {
		b.credit -= n
		return true
	}
	return false
}

// Allow is TryConsume(1, now): one API call costs one credit.
func (b *Bucket) Allow(now time.Time) bool { return b.TryConsume(1, now) }

// Credit returns the credit available at time now.
func (b *Bucket) Credit(now time.Time) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked(now)
	return b.credit
}

// SetCredit overwrites the remaining credit (clamped to [0, capacity]);
// used when restoring from a database checkpoint.
func (b *Bucket) SetCredit(credit float64, now time.Time) {
	b.mu.Lock()
	b.credit = clamp(credit, b.capacity)
	b.last = now
	b.mu.Unlock()
}

// Capacity returns the bucket capacity C.
func (b *Bucket) Capacity() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capacity
}

// RefillRate returns the refill rate A in credits per second.
func (b *Bucket) RefillRate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.refillRate
}

// Rule snapshots the bucket as a Rule with the given key, bringing credit
// current to now first. Used for checkpointing to the database.
func (b *Bucket) Rule(key string, now time.Time) Rule {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked(now)
	return Rule{Key: key, RefillRate: b.refillRate, Capacity: b.capacity, Credit: b.credit}
}
