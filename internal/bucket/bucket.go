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
// The bucket holds that arithmetic in virtual-scheduling form (GCRA): besides
// its geometry (C, r) it keeps one atomic word, the theoretical arrival time
// TAT, in nanoseconds since a package origin (time.Sub, so janusd stays on
// the monotonic clock and the simulator on its virtual one). The credit at t
// is
//
//	credit(t) = C − r·max(0, TAT − t)
//
// A cost n is admitted iff credit(t) ≥ n, compared exactly, and the admission
// moves TAT to max(TAT, t) + n/r with n/r rounded up to whole nanoseconds, so
// rounding can only withhold credit (at most r·1 ns per admission), never
// mint it. Refill is lazy by construction: nothing sweeps the buckets.
//
// A rule whose bucket takes r = 0 or longer than 2^59 ns (18 years) to fill
// keeps its credit in the word instead, a float that only admissions lower.
//
// A clock that steps back more than C/r behind the instant the bucket went
// empty (TAT − t > 2·C/r) re-anchors the bucket empty; it is full again C/r
// later. A smaller step only delays credit, so decisions stamped slightly
// out of order by concurrent callers never mint.
//
// Decisions are lock-free: one compare-and-swap of the word. Reset,
// SetCredit and MinCredit are stores; the first two hold the word at a
// sentinel while they rewrite the geometry, and flip an epoch bit in a TAT
// word, so a decision that read the bucket before a reinstall fails its
// swap and reruns on the new rule. (A credit word carries no epoch: a swap
// on it depends on the word alone, whatever the rule.) All methods are safe
// for concurrent use.
package bucket

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
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
		// rejected explicitly.
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

// Bucket is a concurrency-safe leaky bucket with constant-rate refill: the
// geometry as float64 bits and the word.
type Bucket struct {
	word           atomic.Uint64
	capacity, rate atomic.Uint64
}

// The word: bit 63 clear means it holds the credit's float bits (so the zero
// Bucket holds credit 0); set means bits 0–61 hold TAT+2^61 and bit 62 the
// epoch a reinstall flips.
const (
	timedWord = 1 << 63
	epochBit  = 1 << 62
	tatBias   = 1 << 61
	locked    = ^uint64(0) // a TAT past any the clamps below allow
	// maxFill bounds C/r for the TAT form; with t clamped to
	// [minT, maxT], every TAT stays within ±2^61.
	maxFill    = 1 << 59
	minT, maxT = -(1 << 61), 1<<61 - 1<<60
)

// origin is the instant TAT counts from.
var origin = time.Now()

func nanos(t time.Time) int64 { return min(max(int64(t.Sub(origin)), minT), maxT) }

func tatOf(w uint64) int64 { return int64(w&(epochBit-1)) - tatBias }

func tatWord(tat int64, epoch uint64) uint64 { return timedWord | uint64(tat+tatBias) | epoch }

// timed reports whether geometry (c, r) is held in the TAT form.
func timed(c, r float64) bool { return r > 0 && c*1e9/r < maxFill }

// New creates a bucket from a rule. If the rule carries no explicit credit
// and was not loaded from a checkpoint, pass rule.Credit = rule.Capacity for
// the paper's "initially fully filled" behaviour. now anchors the refill
// clock.
func New(rule Rule, now time.Time) *Bucket {
	b := new(Bucket)
	b.Reset(rule, now)
	return b
}

func (b *Bucket) geometry() (c, r float64) {
	return math.Float64frombits(b.capacity.Load()), math.Float64frombits(b.rate.Load())
}

// load returns a word that is not the reinstall sentinel.
func (b *Bucket) load() uint64 {
	for {
		if w := b.word.Load(); w != locked {
			return w
		}
		runtime.Gosched()
	}
}

// lock takes the word for a reinstall and returns what it held.
func (b *Bucket) lock() uint64 {
	for {
		if w := b.load(); b.word.CompareAndSwap(w, locked) {
			return w
		}
	}
}

// TryConsume attempts to spend n credits at time now. It returns true and
// deducts the credit when at least n credits are available (paper: "If the
// current credit is greater than zero, it returns TRUE"). n must be > 0.
//
//janus:hotpath
func (b *Bucket) TryConsume(n float64, now time.Time) bool {
	if !(n > 0) {
		return false
	}
	t := nanos(now)
	for {
		w := b.load()
		if w&timedWord == 0 {
			credit := math.Float64frombits(w)
			if credit < n {
				return false
			}
			if b.word.CompareAndSwap(w, math.Float64bits(subDown(credit, n))) {
				return true
			}
			continue
		}
		c, r := b.geometry()
		if !timed(c, r) {
			continue // a reinstall is rewriting the geometry under this word
		}
		w, ok := b.settle(w, c, r, t)
		if !ok {
			continue
		}
		tat := tatOf(w)
		if !fits(r, max(0, tat-t), n, c) {
			return false
		}
		if b.word.CompareAndSwap(w, tatWord(max(tat, t)+ceilNs(r, 0, n), w&epochBit)) {
			return true
		}
	}
}

// settle returns the word to decide on at t: w, or w re-anchored empty when
// t lies more than C/r before the instant the bucket went empty. ok is false
// when that swap lost a race and the caller must reload.
func (b *Bucket) settle(w uint64, c, r float64, t int64) (uint64, bool) {
	if d := tatOf(w) - t; d <= 0 || float64(d) <= 2*c*1e9/r*(1+1e-9)+2 {
		return w, true
	}
	nw := tatWord(t+ceilNs(r, 0, c), w&epochBit)
	return nw, b.word.CompareAndSwap(w, nw)
}

// Credit returns the credit available at time now: in the TAT form, the
// largest float found not above the exact credit.
func (b *Bucket) Credit(now time.Time) float64 {
	t := nanos(now)
	for {
		w := b.load()
		if w&timedWord == 0 {
			return math.Float64frombits(w)
		}
		c, r := b.geometry()
		if !timed(c, r) {
			continue
		}
		if w, ok := b.settle(w, c, r, t); ok {
			return creditAt(c, r, tatOf(w)-t)
		}
	}
}

// creditAt is C − r·d/1e9 clamped to [0, C]: for d > 0 the largest float
// not above it, found by bisecting the float bits around the estimate.
func creditAt(c, r float64, d int64) float64 {
	if d <= 0 {
		return c
	}
	x := c - r*float64(d)/1e9
	e := (c+math.Abs(x))*1e-15 + 1e-300
	lo, hi := max(x-e, 0), min(x+e, c)
	if !covers(r, d, lo, c) {
		if lo == 0 {
			return 0
		}
		lo = 0
	}
	if covers(r, d, hi, c) {
		return hi
	}
	// covers(lo) holds and covers(hi) does not; non-negative floats order
	// as their bits.
	l, h := math.Float64bits(lo), math.Float64bits(hi)
	for h-l > 1 {
		if m := l + (h-l)/2; covers(r, d, math.Float64frombits(m), c) {
			l = m
		} else {
			h = m
		}
	}
	return math.Float64frombits(l)
}

// covers reports whether r·d + x·1e9 ≤ c·1e9 is sure: x is not above the
// credit C − r·d/1e9.
func covers(r float64, d int64, x, c float64) bool {
	s, ok := cmpNs(r, d, x, c)
	return ok && s <= 0
}

// Reset reinstalls the bucket in place as New(rule, now) would build it, so
// whoever holds the bucket keeps it across a rule change.
func (b *Bucket) Reset(rule Rule, now time.Time) {
	prev := b.lock()
	b.capacity.Store(math.Float64bits(rule.Capacity))
	b.rate.Store(math.Float64bits(rule.RefillRate))
	b.word.Store(wordFor(rule.Capacity, rule.RefillRate, rule.Credit, nanos(now), prev))
}

// SetCredit overwrites the remaining credit (clamped to [0, capacity]);
// used when restoring from a database checkpoint.
func (b *Bucket) SetCredit(credit float64, now time.Time) {
	prev := b.lock()
	c, r := b.geometry()
	b.word.Store(wordFor(c, r, credit, nanos(now), prev))
}

// wordFor is the word holding credit (clamped to [0, c]) at t under (c, r),
// in the epoch after prev's.
func wordFor(c, r, credit float64, t int64, prev uint64) uint64 {
	credit = min(max(credit, 0), c)
	if !(credit >= 0) {
		credit = 0 // NaN
	}
	if !timed(c, r) {
		return math.Float64bits(credit + 0) // +0 folds −0
	}
	epoch := uint64(epochBit)
	if prev&timedWord != 0 {
		epoch ^= prev & epochBit
	}
	return tatWord(t+ceilNs(r, credit, c), epoch)
}

// MinCredit lowers the credit to at most credit, in one swap, and never
// raises it: the min-merge of a bucket handed over by a peer.
func (b *Bucket) MinCredit(credit float64, now time.Time) {
	t := nanos(now)
	if !(credit > 0) {
		credit = 0 // NaN too
	}
	for {
		w := b.load()
		if w&timedWord == 0 {
			if math.Float64frombits(w) <= credit ||
				b.word.CompareAndSwap(w, math.Float64bits(credit+0)) {
				return
			}
			continue
		}
		c, r := b.geometry()
		if !timed(c, r) {
			continue
		}
		if credit >= c {
			return
		}
		tat := t + ceilNs(r, credit, c)
		if tatOf(w) >= tat || b.word.CompareAndSwap(w, tatWord(tat, w&epochBit)) {
			return
		}
	}
}

// Capacity returns the bucket capacity C.
func (b *Bucket) Capacity() float64 { return math.Float64frombits(b.capacity.Load()) }

// RefillRate returns the refill rate A in credits per second.
func (b *Bucket) RefillRate() float64 { return math.Float64frombits(b.rate.Load()) }

// Rule snapshots the bucket as a Rule with the given key and its credit at
// now. Used for checkpointing to the database.
func (b *Bucket) Rule(key string, now time.Time) Rule {
	credit := b.Credit(now)
	c, r := b.geometry()
	return Rule{Key: key, RefillRate: r, Capacity: c, Credit: min(credit, c)}
}

// subDown is a − b rounded toward −∞.
func subDown(a, b float64) float64 {
	s := a - b
	// TwoSum: a − b = s + e exactly.
	bv := s - a
	if e := (a - (s - bv)) + (-b - bv); e < 0 {
		s = math.Nextafter(s, math.Inf(-1))
	}
	return max(s, 0)
}

// fits reports whether r·d + n·1e9 ≤ c·1e9 holds exactly: whether credit
// C − r·d/1e9 covers cost n. A comparison the 256-bit sum cannot make
// denies.
func fits(r float64, d int64, n, c float64) bool {
	if n > c {
		return false
	}
	if d == 0 {
		return true
	}
	q, fd := (c-n)*1e9/r, float64(d)
	switch {
	case fd < q*(1-1e-12)-1:
		return true
	case fd > q*(1+1e-12)+1:
		return false
	}
	return covers(r, d, n, c)
}

// ceilNs is the least D ≥ 0 with r·D + a·1e9 ≥ b·1e9: the nanoseconds rate r
// takes to refill b − a, rounded up. Where the exact comparison cannot be
// made it errs high.
func ceilNs(r, a, b float64) int64 {
	if a >= b {
		return 0
	}
	q := (b - a) * 1e9 / r
	if q >= maxFill {
		return maxFill // past any fill time the TAT form holds
	}
	up := math.Ceil(q)
	if up-q >= q*1e-14 && q-(up-1) > q*1e-14 {
		return int64(up) // q is far enough from an integer for its rounding not to matter
	}
	if n := b * 1e9; a == 0 && up < 1<<53 && math.FMA(b, 1e9, -n) == 0 &&
		math.FMA(r, up, -n) >= 0 && math.FMA(r, up-1, -n) < 0 {
		return int64(up) // an exact b·1e9 checked against r·up: a whole number of ns per credit
	}
	d := int64(math.Ceil(q*(1+1e-15))) + 1
	for range 4 {
		if d == 0 {
			break
		}
		if s, ok := cmpNs(r, d-1, a, b); !ok || s < 0 {
			break
		}
		d--
	}
	return d
}

// cmpNs returns the sign of r·d + a·1e9 − b·1e9, computed exactly in 256-bit
// integers (r > 0, d ≥ 0, a, b ≥ 0, all finite). ok is false when the
// operands' binary exponents lie more than 120 apart.
func cmpNs(r float64, d int64, a, b float64) (sign int, ok bool) {
	mr, er := split(r)
	ma, ea := split(a)
	mb, eb := split(b)
	type term struct {
		hi, lo uint64
		e      int
	}
	var ts [3]term
	ts[0].hi, ts[0].lo = bits.Mul64(mr, uint64(d))
	ts[1].hi, ts[1].lo = bits.Mul64(ma, 1e9)
	ts[2].hi, ts[2].lo = bits.Mul64(mb, 1e9)
	ts[0].e, ts[1].e, ts[2].e = er, ea, eb
	e0, e1 := math.MaxInt, math.MinInt
	for _, t := range ts {
		if t.hi|t.lo != 0 {
			e0, e1 = min(e0, t.e), max(e1, t.e)
		}
	}
	if e0 == math.MaxInt {
		return 0, true
	}
	if e1-e0 > 120 {
		return 0, false
	}
	var v [3]u256
	for i, t := range ts {
		if t.hi|t.lo != 0 {
			v[i] = shl(t.hi, t.lo, uint(t.e-e0))
		}
	}
	return v[0].add(v[1]).cmp(v[2]), true
}

// split returns x's mantissa and binary exponent: x = m·2^e.
func split(x float64) (m uint64, e int) {
	u := math.Float64bits(x)
	exp, frac := int(u>>52&0x7ff), u&(1<<52-1)
	if exp == 0 {
		return frac, -1074
	}
	return frac | 1<<52, exp - 1075
}

// u256 is an unsigned 256-bit integer, least significant word first.
type u256 [4]uint64

// shl returns hi:lo << s, for s ≤ 128.
func shl(hi, lo uint64, s uint) (z u256) {
	w, n := s/64, s%64
	v := [3]uint64{lo, hi, 0}
	if n != 0 {
		v = [3]uint64{lo << n, hi<<n | lo>>(64-n), hi >> (64 - n)}
	}
	copy(z[w:], v[:])
	return z
}

func (x u256) add(y u256) (z u256) {
	var c uint64
	for i := range z {
		z[i], c = bits.Add64(x[i], y[i], c)
	}
	return z
}

func (x u256) cmp(y u256) int {
	for i := 3; i >= 0; i-- {
		if x[i] != y[i] {
			if x[i] < y[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}
