// Package audit is the online admission-audit ledger: a per-bucket
// conservation accountant that proves, continuously and in production, the
// invariant the chaos suite checks offline — a bucket with capacity C and
// refill rate r admits at most
//
//	C_installed + r·elapsed + lease_slack
//
// units of cost. Every path that grants credit (first-sight install, a
// rules-sync geometry change, a handoff install, a replication-snapshot
// install, a lease grant) reports the grant to the ledger; every admission
// reports its cost. An audit pass then compares admitted cost against the
// budget per bucket: a correct daemon can NEVER overspend, because the
// ledger's budget is a deliberate over-approximation of what the bucket
// could have released —
//
//   - min-merge (handoff/replication applying onto a live bucket) only
//     LOWERS credit, so it needs no budget entry;
//   - refill past capacity is counted into the budget even though the
//     bucket clamps it away;
//   - lease slack charges the full rate×TTL plus the prepaid burst the
//     moment the lease is granted, regardless of what the holder spends.
//
// An overspend is therefore always a real conservation bug (double-applied
// credit, a lost revocation, a merge that minted tokens) — the exact class
// of bug the min-merge rule exists to prevent — and the report names the
// bucket and its credit-grant generation. Overspends surface three ways:
// the janus_*_audit_overspend_total counter, the /debug/audit endpoint, and
// a flight-recorder event.
//
// Cost model: the ledger is opt-in per daemon (a nil ledger disables all
// accounting). When enabled, the admission hot path pays one sharded
// read-locked map lookup plus one lock-free float add (Admit, zero-alloc,
// //janus:hotpath-clean); everything else — installs, lease grants, audit
// passes — happens on cold control paths under per-account mutexes.
package audit

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

const shardCount = 16

// Overspend describes one bucket found over budget by an audit pass.
type Overspend struct {
	// Key is the bucket key.
	Key string `json:"key"`
	// Generation is the bucket's credit-grant generation — incremented on
	// every install, so the report pins WHICH configuration epoch of the
	// bucket overspent.
	Generation uint64 `json:"generation"`
	// Admitted is the total cost admitted against the bucket.
	Admitted float64 `json:"admitted"`
	// Budget is the conservation budget at audit time.
	Budget float64 `json:"budget"`
	// Over is Admitted − Budget.
	Over float64 `json:"over"`
}

// Report is the result of one audit pass — the /debug/audit JSON shape.
type Report struct {
	// Verdict is "ok" or "overspend".
	Verdict string `json:"verdict"`
	// Nanos is the audit time in Unix nanoseconds.
	Nanos int64 `json:"ns"`
	// Buckets is the number of accounts audited.
	Buckets int `json:"buckets"`
	// Admitted is the total admitted cost across all accounts.
	Admitted float64 `json:"admitted"`
	// Overspent lists the buckets over budget (capped at 100 entries).
	Overspent []Overspend `json:"overspent,omitempty"`
}

// account is the ledger's view of one bucket. The mutable accounting fields
// are guarded by mu (cold paths only); admittedBits is the lock-free hot
// counter.
type account struct {
	admittedBits atomic.Uint64 // float64 bits of total admitted cost

	mu        sync.Mutex
	installed float64 // Σ credit granted by installs
	accrued   float64 // refill accrued at superseded rates
	rate      float64 // current refill rate (units/sec)
	anchorNs  int64   // when rate last changed (Unix nanos)
	slack     float64 // Σ lease grants: rate×TTL + prepaid burst
	gen       uint64  // credit-grant generation
	flagged   bool    // overspend already reported for this generation
}

func (a *account) admitted() float64 {
	return math.Float64frombits(a.admittedBits.Load())
}

// budget computes the conservation budget at nowNs (mu held).
func (a *account) budget(nowNs int64) float64 {
	b := a.installed + a.accrued + a.slack
	if dt := nowNs - a.anchorNs; dt > 0 && a.rate > 0 {
		b += a.rate * float64(dt) / 1e9
	}
	return b
}

type shard struct {
	mu sync.RWMutex
	m  map[string]*account
}

// Config tunes a Ledger.
type Config struct {
	// Clock supplies the audit clock (default time.Now). Installs and
	// audit passes read it; Admit never does.
	Clock func() time.Time
	// OnOverspend, when set, is called once per (bucket, generation) the
	// first time an audit pass finds it over budget — the flight-recorder
	// and metrics hook. Called without ledger locks held beyond the
	// account's own.
	OnOverspend func(Overspend)
}

// Ledger tracks admission against granted credit for a set of buckets.
type Ledger struct {
	clock       func() time.Time
	onOverspend func(Overspend)
	overspends  atomic.Int64
	shards      [shardCount]shard
	// pass is the list an audit pass copies a shard's accounts into, kept
	// between passes so that a periodic pass allocates nothing; a pass
	// running beside another takes a fresh one.
	pass atomic.Pointer[[]passEntry]
}

type passEntry struct {
	key string
	a   *account
}

// NewLedger builds a ledger.
func NewLedger(cfg Config) *Ledger {
	l := &Ledger{clock: cfg.Clock, onOverspend: cfg.OnOverspend}
	if l.clock == nil {
		l.clock = time.Now
	}
	for i := range l.shards {
		l.shards[i].m = make(map[string]*account)
	}
	return l
}

// fnv32 hashes a key to its shard (same scheme the bucket table uses).
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (l *Ledger) shardFor(key string) *shard {
	return &l.shards[fnv32(key)%shardCount]
}

func (l *Ledger) lookup(key string) *account {
	sh := l.shardFor(key)
	sh.mu.RLock()
	a := sh.m[key]
	sh.mu.RUnlock()
	return a
}

// Install reports a wholesale credit grant: a bucket created or re-created
// with the given starting credit and refill rate. Accrual at the previous
// rate is folded in and the generation advances. Min-merge applications
// (which only lower credit) must NOT be reported — they grant nothing.
//
// A nil ledger is a no-op, so call sites need no gate.
func (l *Ledger) Install(key string, credit, rate float64) {
	if l == nil {
		return
	}
	nowNs := l.clock().UnixNano()
	sh := l.shardFor(key)
	sh.mu.Lock()
	a := sh.m[key]
	if a == nil {
		a = &account{}
		sh.m[key] = a
	}
	sh.mu.Unlock()

	a.mu.Lock()
	if dt := nowNs - a.anchorNs; a.gen > 0 && dt > 0 && a.rate > 0 {
		a.accrued += a.rate * float64(dt) / 1e9
	}
	a.installed += credit
	a.rate = rate
	a.anchorNs = nowNs
	a.gen++
	a.flagged = false
	a.mu.Unlock()
}

// AddSlack reports lease headroom granted against the bucket: the full
// rate×TTL the holder may spend remotely plus any prepaid burst. Unknown
// keys are ignored (a lease cannot exist without an installed bucket).
func (l *Ledger) AddSlack(key string, amount float64) {
	if l == nil || amount <= 0 {
		return
	}
	a := l.lookup(key)
	if a == nil {
		return
	}
	a.mu.Lock()
	a.slack += amount
	a.mu.Unlock()
}

// Admit reports cost admitted against the bucket. This is the hot-path
// hook: one sharded read-locked map lookup and one lock-free float add,
// allocation-free. Unknown keys are ignored (the bucket was installed
// through a path that does not audit — untracked, never wrong).
//
//janus:hotpath
func (l *Ledger) Admit(key string, cost float64) {
	if l == nil {
		return
	}
	a := l.lookup(key)
	if a == nil {
		return
	}
	for {
		old := a.admittedBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + cost)
		if a.admittedBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Overspends reports how many (bucket, generation) overspend transitions
// audit passes have detected since startup — the counter behind
// janus_*_audit_overspend_total.
func (l *Ledger) Overspends() int64 {
	if l == nil {
		return 0
	}
	return l.overspends.Load()
}

// Buckets reports how many accounts the ledger tracks.
func (l *Ledger) Buckets() int {
	if l == nil {
		return 0
	}
	n := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Audit runs one audit pass over every account and returns the report. New
// overspends (per bucket generation) bump the overspend counter and fire
// the OnOverspend hook.
func (l *Ledger) Audit() Report {
	nowNs := l.clock().UnixNano()
	rep := Report{Verdict: "ok", Nanos: nowNs}
	pass := l.pass.Swap(nil)
	if pass == nil {
		pass = new([]passEntry)
	}
	defer func() {
		clear((*pass)[:cap(*pass)]) // hold no account past the pass
		l.pass.Store(pass)
	}()
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.RLock()
		entries := (*pass)[:0]
		for k, a := range sh.m {
			entries = append(entries, passEntry{k, a})
		}
		sh.mu.RUnlock()
		*pass = entries
		for _, e := range entries {
			a := e.a
			admitted := a.admitted()
			rep.Buckets++
			rep.Admitted += admitted
			a.mu.Lock()
			budget := a.budget(nowNs)
			// Tolerance: float accumulation error across millions of
			// admissions, never enough to mask a real double-grant.
			eps := 1e-6 + 1e-9*math.Abs(budget)
			over := admitted - budget
			isOver := over > eps
			fresh := isOver && !a.flagged
			if fresh {
				a.flagged = true
			}
			gen := a.gen
			a.mu.Unlock()
			if !isOver {
				continue
			}
			o := Overspend{Key: e.key, Generation: gen, Admitted: admitted, Budget: budget, Over: over}
			if len(rep.Overspent) < 100 {
				rep.Overspent = append(rep.Overspent, o)
			}
			rep.Verdict = "overspend"
			if fresh {
				l.overspends.Add(1)
				if l.onOverspend != nil {
					l.onOverspend(o)
				}
			}
		}
	}
	return rep
}
