// Package admission is the QoS server's admission decision (paper §II-C,
// §III-C) without its I/O: the local table, the leaky-bucket decision,
// first-sight rule installation with the default rule and the fail-open/
// fail-closed fallback, and the audit hook. A Table opens no socket, starts
// no goroutine and reads the clock it is given, so janusd (behind its UDP
// intake) and the simulator (on its virtual clock) share one decision.
package admission

import (
	"log"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/bucket"
	"repro/internal/daemon"
	"repro/internal/failpoint"
	"repro/internal/metrics"
	"repro/internal/table"
	"repro/internal/wire"
)

// Rules fetches the rule of a key on its first sight: found is false when
// the database holds no row for it, and err reports that the database
// failed. (*store.Store).Get is one.
type Rules func(key string) (rule bucket.Rule, found bool, err error)

// Entry is all a resident key holds, 64 B in one allocation: its 24 B bucket
// and its 40 B audit account, whose owner's word carries the entry's marks
// (whether the default rule installed it, and whether its rule fetch
// failed). Install reinstalls it in place, so the account carries across the
// key's residency, and deleting the key drops all of it.
type Entry struct {
	bucket.Bucket
	acct audit.Account
}

// The entry's marks, bits of its account's owner's word.
const (
	markDefault  = 1 << iota // the default rule installed the entry
	markFallback             // the entry is its failed fetch's fallback
)

// Default reports whether the default rule installed the entry.
func (e *Entry) Default() bool { return e.acct.Marks.Load()&markDefault != 0 }

// setDefault sets or clears the default-rule mark.
func (e *Entry) setDefault(isDefault bool) {
	if isDefault {
		e.acct.Marks.Or(markDefault)
	} else {
		e.acct.Marks.And(^uint32(markDefault))
	}
}

// Table is the local QoS table, one *Entry per resident key, and the
// decision made against it. All methods are safe for concurrent use.
type Table struct {
	table.Sharded[*Entry]
	clock func() time.Time

	// The decision counters, under janusd's metric names; the server adds
	// its sync and checkpoint failures to DBErrors.
	Decisions, Allowed, Denied, DefaultHit, DBQueries, DBErrors *metrics.Counter

	rules       Rules
	defaultRule bucket.Rule
	failOpen    bool
	audit       *audit.Ledger // nil when auditing is off

	// fetchFailed is set once a fallback entry is in the table. fetchErrLog
	// bounds the log a key spray against a down database would write.
	fetchFailed atomic.Bool
	fetchErrLog daemon.Throttle
	logger      *log.Logger // nil discards
}

// New returns an empty table. Without rules (no database) every key gets
// defaultRule, whose Key is ignored; the zero rule denies. failOpen is the
// verdict of a key whose fetch failed. A nil ledger audits nothing, and a
// nil logger drops the fetch errors; the counters register in reg.
func New(rules Rules, defaultRule bucket.Rule, failOpen bool, ledger *audit.Ledger, clock func() time.Time, reg *metrics.Registry, logger *log.Logger) *Table {
	return &Table{
		Sharded:     *table.NewSharded[*Entry](0),
		clock:       clock,
		Decisions:   reg.Counter("janus_qos_decisions_total", "admission decisions made"),
		Allowed:     reg.Counter("janus_qos_decisions_allowed_total", "decisions that admitted the request"),
		Denied:      reg.Counter("janus_qos_decisions_denied_total", "decisions that denied the request"),
		DefaultHit:  reg.Counter("janus_qos_default_rule_total", "decisions served by the default rule"),
		DBQueries:   reg.Counter("janus_qos_db_queries_total", "rule fetches that hit the database"),
		DBErrors:    reg.Counter("janus_qos_db_errors_total", "database operations that failed"),
		rules:       rules,
		defaultRule: defaultRule,
		failOpen:    failOpen,
		audit:       ledger,
		logger:      logger,
	}
}

// Decide makes the admission decision for one request, fetching the key's
// rule on its first sight.
//
//janus:hotpath
func (t *Table) Decide(req wire.Request) wire.Response {
	now := t.clock()
	e := t.Get(req.Key)
	if e == nil {
		//lint:ignore hotalloc first sight of a key installs its rule; every later decision hits the table
		e = t.installRule(req.Key, now)
	}
	return t.decide(e, &req, now)
}

// DecideKey is Decide for a key still in its datagram: only a key seen for
// the first time is copied into the string the table keeps.
//
//janus:hotpath
func (t *Table) DecideKey(req *wire.Request, key []byte) wire.Response {
	now := t.clock()
	e := t.GetBytes(key)
	if e == nil {
		//lint:ignore hotalloc first sight of a key makes its string and installs its rule; every later decision finds it from the bytes
		e = t.installRule(string(key), now)
	}
	return t.decide(e, req, now)
}

// decide is Decide's and DecideKey's decision against the key's entry.
//
//janus:hotpath
func (t *Table) decide(e *Entry, req *wire.Request, now time.Time) wire.Response {
	status := wire.StatusOK
	if e.Default() {
		status = wire.StatusDefaultRule
		t.DefaultHit.Inc()
	}
	cost := req.Cost
	if cost == 0 {
		cost = 1
	}
	allow := e.TryConsume(cost, now)
	if !allow && fpAuditDoubleCredit.Armed() {
		if o := fpAuditDoubleCredit.Eval(); o.Kind != failpoint.Off {
			// An exhausted bucket silently refills without a ledger grant;
			// the audit pass must report the admissions it pays for.
			e.SetCredit(e.Capacity(), now)
		}
	}
	t.Decisions.Inc()
	if allow {
		t.Allowed.Inc()
		t.audit.Admit(&e.acct, cost)
	} else {
		t.Denied.Inc()
	}
	return wire.Response{ID: req.ID, Allow: allow, Status: status, TraceID: req.TraceID}
}

// fpAuditDoubleCredit mints credit on an exhausted bucket without telling
// the audit ledger, the conservation bug a double-applied handoff would be,
// to prove the ledger catches it. It fires only on the deny path.
var fpAuditDoubleCredit = failpoint.New("qosserver/audit/double-credit")

// installRule fetches key's rule (or applies the default) and installs its
// entry, fetching inside GetOrCreate under the shard's write lock.
func (t *Table) installRule(key string, now time.Time) *Entry {
	e, created := t.GetOrCreate(key, func() *Entry {
		rule, isDefault, failed := t.fetchRule(key)
		e := t.Install(new(Entry), rule, isDefault, now)
		if failed {
			e.acct.Marks.Or(markFallback)
		}
		return e
	})
	if created && e.acct.Marks.Load()&markFallback != 0 {
		t.fetchFailed.Store(true) // only now, so RetryFallbacks finds the entry
	}
	return e
}

// fetchRule asks rules for key's rule; isDefault reports that the default
// or the fallback was applied, and failed that the fetch failed.
func (t *Table) fetchRule(key string) (rule bucket.Rule, isDefault, failed bool) {
	if t.rules != nil {
		t.DBQueries.Inc()
		r, found, err := t.rules(key)
		switch {
		case err != nil:
			t.DBErrors.Inc()
			if t.logger != nil {
				t.fetchErrLog.Printf(t.logger, "qosserver: rule fetch for %q failed: %v", key, err)
			}
			if t.failOpen {
				// Admit generously until the database recovers.
				return bucket.Rule{Key: key, RefillRate: 1e12, Capacity: 1e12, Credit: 1e12}, true, true
			}
			return bucket.DenyAll(key), true, true
		case found:
			return r, false, false
		}
	}
	d := t.defaultRule // Install clamps its credit to its capacity
	d.Key = key
	return d, true, false
}

// Put installs rule for its key: in place when the key is resident, else as
// a new entry, whole before any decision can find it.
func (t *Table) Put(rule bucket.Rule, isDefault bool, now time.Time) {
	e, created := t.GetOrCreate(rule.Key, func() *Entry { return t.Install(new(Entry), rule, isDefault, now) })
	if !created {
		t.Install(e, rule, isDefault, now)
	}
}

// Merge applies a rule handed over by a peer: on the resident entry's
// geometry it only ever lowers the credit (min-merge, one swap of the
// bucket's word, so a decision beside it keeps its charge); any other rule
// is installed wholesale.
func (t *Table) Merge(rule bucket.Rule, isDefault bool, now time.Time) {
	e := t.Get(rule.Key)
	if e == nil || e.RefillRate() != rule.RefillRate || e.Capacity() != rule.Capacity {
		t.Put(rule, isDefault, now)
		return
	}
	e.MinCredit(rule.Credit, now)
	e.setDefault(isDefault)
}

// Install reinstalls e from rule and returns it. It is the one chokepoint
// for wholesale credit grants (first sight, sync, handoff, snapshot,
// preload), so the audit ledger's Install hook runs here, ahead of the
// bucket reset it accounts for; Merge only lowers credit and grants nothing.
func (t *Table) Install(e *Entry, rule bucket.Rule, isDefault bool, now time.Time) *Entry {
	t.audit.Install(&e.acct, min(rule.Credit, rule.Capacity), rule.RefillRate)
	e.Reset(rule, now)
	e.setDefault(isDefault)
	return e
}

// Evict removes every resident key that gone reports, with its whole entry.
func (t *Table) Evict(gone func(key string, e *Entry) bool) {
	var keys []string
	t.Range(func(key string, e *Entry) bool {
		if gone(key, e) {
			keys = append(keys, key)
		}
		return true
	})
	for _, key := range keys {
		t.Delete(key)
	}
}

// RetryFallbacks is called once the database answers again: each key still
// on its fetch-error fallback leaves, so its next request fetches its rule.
// It scans the table only after a fetch failed.
func (t *Table) RetryFallbacks() {
	if t.fetchFailed.Swap(false) {
		t.Evict(func(_ string, e *Entry) bool {
			return e.acct.Marks.And(^uint32(markFallback))&markFallback != 0 && e.Default()
		})
	}
}

// Audit runs one audit pass over every resident key's account. With
// auditing off the verdict is "disabled".
func (t *Table) Audit() audit.Report {
	if t.audit == nil {
		return audit.Report{Verdict: "disabled"}
	}
	return t.audit.Audit(func(yield func(string, *audit.Account) bool) {
		t.Range(func(key string, e *Entry) bool { return yield(key, &e.acct) })
	})
}
