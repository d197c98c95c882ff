// Package audit is the online admission-audit ledger: a per-bucket
// conservation accountant that proves, continuously and in production, the
// invariant the chaos suite checks offline — a bucket with capacity C and
// refill rate r admits at most
//
//	C_installed + accrued + r·elapsed
//
// units of cost, where accrued is the refill earned at superseded rates —
// the paper's C + r·t per key. Every path that grants credit (first-sight
// install, a rules-sync geometry change, a handoff install, a
// replication-snapshot install) reports the grant to the ledger; every
// admission reports its cost. An audit pass then compares admitted cost
// against the budget per bucket: a correct daemon can NEVER overspend,
// because the ledger's budget is a deliberate over-approximation of what
// the bucket could have released —
//
//   - min-merge (handoff/replication applying onto a live bucket) only
//     LOWERS credit, so it needs no budget entry;
//   - refill past capacity is counted into the budget even though the
//     bucket clamps it away.
//
// An overspend is therefore always a real conservation bug (double-applied
// credit, a merge that minted tokens) — the exact class of bug the
// min-merge rule exists to prevent — and the report names the bucket and
// its credit-grant generation. Overspends surface three ways:
// the janus_*_audit_overspend_total counter, the /debug/audit endpoint, and
// a flight-recorder event.
//
// Cost model: the ledger is opt-in per daemon (a nil ledger disables all
// accounting). It owns no map: each bucket's Account lives beside the bucket
// in its owner's table entry, arrives and leaves with it, and the owner
// yields its accounts to an audit pass. When enabled, the admission hot path
// pays one lock-free float add (Admit, zero-alloc, //janus:hotpath-clean);
// installs and audit passes run on cold control paths under the ledger's one
// mutex. An account is 40 B, so a 24 B bucket and its account fill one 64 B
// allocation.
package audit

import (
	"iter"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

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

// Account is the ledger's view of one bucket, held by the bucket's owner;
// the zero value has been granted nothing. admittedBits is the lock-free hot
// counter; the other accounting fields are guarded by the ledger's mutex
// (cold paths only).
type Account struct {
	admittedBits atomic.Uint64 // float64 bits of total admitted cost

	granted  float64 // Σ credit granted by installs + refill accrued at superseded rates
	rate     float64 // current refill rate (units/sec)
	anchorNs int64   // when rate last changed (Unix nanos)
	gen      uint32  // credit-grant generation, with flagged as its top bit

	// Marks is the owner's word, in what would otherwise be the account's
	// padding: the ledger never reads or writes it.
	Marks atomic.Uint32
}

// flagged is the gen bit set once an overspend of the generation has been
// reported; the generation is the bits below it.
const flagged = 1 << 31

func (a *Account) admitted() float64 {
	return math.Float64frombits(a.admittedBits.Load())
}

// budget computes the conservation budget at nowNs (ledger mutex held).
func (a *Account) budget(nowNs int64) float64 {
	b := a.granted
	if dt := nowNs - a.anchorNs; dt > 0 && a.rate > 0 {
		b += a.rate * float64(dt) / 1e9
	}
	return b
}

// Config tunes a Ledger.
type Config struct {
	// Clock supplies the audit clock (default time.Now). Installs and
	// audit passes read it; Admit never does.
	Clock func() time.Time
	// OnOverspend, when set, is called once per (bucket, generation) the
	// first time an audit pass finds it over budget — the flight-recorder
	// and metrics hook. Called once the pass has walked every account.
	OnOverspend func(Overspend)
}

// Ledger holds what the accounts of one daemon share: the audit clock, the
// mutex over the accounts' cold fields, the overspend counter and the hook.
// An owner that installs or audits under a lock of its own holds it before
// mu, which is always taken last.
type Ledger struct {
	clock       func() time.Time
	mu          sync.Mutex
	onOverspend func(Overspend)
	overspends  atomic.Int64
	// pass is an audit pass's state with its check bound once, kept between
	// passes so that a periodic pass allocates nothing; a pass running beside
	// another takes a fresh one.
	pass atomic.Pointer[pass]
}

type pass struct {
	l     *Ledger
	rep   Report
	fresh []Overspend // first found this generation: counted after the walk
	check func(key string, a *Account) bool
}

// NewLedger builds a ledger.
func NewLedger(cfg Config) *Ledger {
	l := &Ledger{clock: cfg.Clock, onOverspend: cfg.OnOverspend}
	if l.clock == nil {
		l.clock = time.Now
	}
	return l
}

// Install reports a wholesale credit grant to a: its bucket created or
// re-created with the given starting credit and refill rate. Accrual at the
// previous rate is folded in and the generation advances. Min-merge
// applications (which only lower credit) must NOT be reported — they grant
// nothing.
//
// A nil ledger is a no-op, so call sites need no gate.
func (l *Ledger) Install(a *Account, credit, rate float64) {
	if l == nil {
		return
	}
	nowNs := l.clock().UnixNano()
	l.mu.Lock()
	// A zero account has rate 0, so only a reinstall folds accrual in.
	if dt := nowNs - a.anchorNs; dt > 0 && a.rate > 0 {
		a.granted += a.rate * float64(dt) / 1e9
	}
	a.granted += credit
	a.rate = rate
	a.anchorNs = nowNs
	// The next generation, flagged cleared; after 2^31−1 installs of one
	// bucket it restarts at 1, since 0 means never installed.
	a.gen = a.gen&^flagged + 1
	if a.gen == flagged {
		a.gen = 1
	}
	l.mu.Unlock()
}

// Admit reports cost admitted against a's bucket. This is the hot-path
// hook: one lock-free float add, allocation-free.
//
//janus:hotpath
func (l *Ledger) Admit(a *Account, cost float64) {
	if l == nil {
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

// Audit runs one audit pass over every account that accounts yields, with
// its bucket's key, and returns the report. New overspends (per bucket
// generation) bump the overspend counter and fire the OnOverspend hook.
func (l *Ledger) Audit(accounts iter.Seq2[string, *Account]) Report {
	p := l.pass.Swap(nil)
	if p == nil {
		p = &pass{l: l}
		p.check = p.audit
	}
	p.rep = Report{Verdict: "ok", Nanos: l.clock().UnixNano()}
	accounts(p.check)
	rep, fresh := p.rep, p.fresh
	p.rep, p.fresh = Report{}, nil
	l.pass.Store(p)
	// The hook runs after the walk, so none of it runs under the owner's
	// locks.
	for _, o := range fresh {
		l.overspends.Add(1)
		if l.onOverspend != nil {
			l.onOverspend(o)
		}
	}
	return rep
}

// audit checks one account against its budget at the pass's time.
func (p *pass) audit(key string, a *Account) bool {
	admitted := a.admitted()
	p.rep.Buckets++
	p.rep.Admitted += admitted
	p.l.mu.Lock()
	budget := a.budget(p.rep.Nanos)
	// Tolerance: float accumulation error across millions of admissions,
	// never enough to mask a real double-grant.
	eps := 1e-6 + 1e-9*math.Abs(budget)
	over := admitted - budget
	isOver := over > eps
	fresh := isOver && a.gen&flagged == 0
	if fresh {
		a.gen |= flagged
	}
	gen := a.gen &^ flagged
	p.l.mu.Unlock()
	if !isOver {
		return true
	}
	o := Overspend{Key: key, Generation: uint64(gen), Admitted: admitted, Budget: budget, Over: over}
	if len(p.rep.Overspent) < 100 {
		p.rep.Overspent = append(p.rep.Overspent, o)
	}
	p.rep.Verdict = "overspend"
	if fresh {
		p.fresh = append(p.fresh, o)
	}
	return true
}
