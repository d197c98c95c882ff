package audit

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// simClock is a manually-advanced clock so accrual math is exact.
type simClock struct{ now time.Time }

func newSimClock() *simClock {
	return &simClock{now: time.Unix(1_700_000_000, 0)}
}
func (c *simClock) Now() time.Time          { return c.now }
func (c *simClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

// shadowBucket mirrors the leaky bucket's admission rule exactly: lazy
// refill clamped at capacity, admit when credit covers cost. The property
// tests gate every Admit on the shadow — if the shadow allowed it, the
// bucket would have allowed it, and the ledger must agree it was in budget.
type shadowBucket struct {
	credit, capacity, rate float64
	last                   time.Time
}

func (b *shadowBucket) refill(now time.Time) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.credit = math.Min(b.capacity, b.credit+b.rate*dt)
	}
	b.last = now
}

func (b *shadowBucket) tryConsume(now time.Time, cost float64) bool {
	b.refill(now)
	if b.credit >= cost {
		b.credit -= cost
		return true
	}
	return false
}

func TestAuditEmptyLedgerIsOK(t *testing.T) {
	l := NewLedger(Config{})
	rep := l.Audit()
	if rep.Verdict != "ok" || rep.Buckets != 0 {
		t.Fatalf("empty ledger audit = %+v, want ok/0 buckets", rep)
	}
}

// TestAuditPassAllocatesNothing: a periodic pass over a ledger with no
// overspend reuses the list it copies each shard into.
func TestAuditPassAllocatesNothing(t *testing.T) {
	l := NewLedger(Config{})
	for i := 0; i < 1000; i++ {
		l.Install(fmt.Sprintf("k%d", i), 10, 1)
	}
	l.Audit()
	if n := testing.AllocsPerRun(20, func() { l.Audit() }); n != 0 {
		t.Fatalf("an audit pass allocates %v times, want 0", n)
	}
	// Passes side by side share no list: each still sees every bucket.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if rep := l.Audit(); rep.Buckets != 1000 || rep.Verdict != "ok" {
					t.Errorf("audit = %+v, want 1000 buckets, ok", rep)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestNilLedgerIsNoOp(t *testing.T) {
	var l *Ledger
	l.Install("k", 1, 1)
	l.Admit("k", 1)
	if l.Overspends() != 0 || l.Buckets() != 0 {
		t.Fatal("nil ledger must be inert")
	}
}

func TestAdmitWithinBudgetStaysOK(t *testing.T) {
	clk := newSimClock()
	l := NewLedger(Config{Clock: clk.Now})
	l.Install("alice", 100, 10)
	l.Admit("alice", 100) // the full installed credit, instantly
	clk.Advance(5 * time.Second)
	l.Admit("alice", 49) // just under the 50 accrued
	rep := l.Audit()
	if rep.Verdict != "ok" {
		t.Fatalf("in-budget schedule audited %+v", rep)
	}
	if rep.Buckets != 1 || rep.Admitted != 149 {
		t.Fatalf("report = %+v, want 1 bucket / 149 admitted", rep)
	}
}

func TestOverspendDetectedAndNamed(t *testing.T) {
	clk := newSimClock()
	var fired []Overspend
	l := NewLedger(Config{Clock: clk.Now, OnOverspend: func(o Overspend) { fired = append(fired, o) }})
	l.Install("bob", 10, 0)
	l.Install("bob", 5, 0) // second grant: generation 2, budget 15
	l.Admit("bob", 40)     // minted credit: 25 over budget
	rep := l.Audit()
	if rep.Verdict != "overspend" || len(rep.Overspent) != 1 {
		t.Fatalf("audit = %+v, want one overspend", rep)
	}
	o := rep.Overspent[0]
	if o.Key != "bob" || o.Generation != 2 {
		t.Fatalf("overspend names %q gen %d, want bob gen 2", o.Key, o.Generation)
	}
	if math.Abs(o.Over-25) > 1e-3 {
		t.Fatalf("over = %v, want ≈25", o.Over)
	}
	if l.Overspends() != 1 || len(fired) != 1 {
		t.Fatalf("counter=%d hook fires=%d, want 1/1", l.Overspends(), len(fired))
	}
	// A second pass re-reports the bucket but does not re-count it.
	rep = l.Audit()
	if rep.Verdict != "overspend" || l.Overspends() != 1 {
		t.Fatalf("second pass: verdict=%s counter=%d, want overspend/1", rep.Verdict, l.Overspends())
	}
	// A reinstall opens a new generation; a fresh overspend counts again.
	l.Install("bob", 1, 0)
	l.Admit("bob", 100)
	l.Audit()
	if l.Overspends() != 2 {
		t.Fatalf("counter=%d after new-generation overspend, want 2", l.Overspends())
	}
}

func TestRateChangeFoldsAccrual(t *testing.T) {
	clk := newSimClock()
	l := NewLedger(Config{Clock: clk.Now})
	l.Install("carol", 0, 100) // 100/s
	clk.Advance(2 * time.Second)
	l.Admit("carol", 200)    // exactly the accrual at the old rate
	l.Install("carol", 0, 1) // rate drops to 1/s; the 200 must stay budgeted
	clk.Advance(1 * time.Second)
	l.Admit("carol", 1)
	if rep := l.Audit(); rep.Verdict != "ok" {
		t.Fatalf("accrual across a rate change was lost: %+v", rep)
	}
}

// TestAuditPropertyNoFalsePositive is the conservation property test: any
// schedule of installs, rate changes, min-merges and admissions GATED BY A
// CORRECT BUCKET never audits as overspend — across many seeds, keys, and
// interleavings.
func TestAuditPropertyNoFalsePositive(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clk := newSimClock()
			l := NewLedger(Config{Clock: clk.Now})
			shadows := map[string]*shadowBucket{}
			keys := []string{"alice", "bob", "carol", "dave", "erin"}

			install := func(key string) {
				cap := 1 + rng.Float64()*1000
				credit := rng.Float64() * cap
				rate := rng.Float64() * 100
				l.Install(key, credit, rate)
				shadows[key] = &shadowBucket{credit: credit, capacity: cap, rate: rate, last: clk.Now()}
			}
			for _, k := range keys {
				install(k)
			}

			for step := 0; step < 2000; step++ {
				if d := rng.Intn(4); d > 0 {
					clk.Advance(time.Duration(rng.Intn(200)) * time.Millisecond)
				}
				key := keys[rng.Intn(len(keys))]
				sb := shadows[key]
				switch op := rng.Intn(19); {
				case op < 15: // admission attempt, bucket-gated
					cost := 1 + rng.Float64()*20
					if sb.tryConsume(clk.Now(), cost) {
						l.Admit(key, cost)
					}
				case op < 17: // wholesale reinstall (sync geometry change, handoff)
					install(key)
				case op < 18: // min-merge: credit can only drop, no grant
					sb.refill(clk.Now())
					sb.credit = math.Min(sb.credit, rng.Float64()*sb.capacity)
				default: // audit mid-schedule: must already hold
					if rep := l.Audit(); rep.Verdict != "ok" {
						t.Fatalf("step %d: mid-schedule overspend: %+v", step, rep.Overspent)
					}
				}
			}
			rep := l.Audit()
			if rep.Verdict != "ok" {
				t.Fatalf("correct schedule audited as overspend: %+v", rep.Overspent)
			}
			if rep.Buckets != len(keys) {
				t.Fatalf("audited %d buckets, want %d", rep.Buckets, len(keys))
			}
		})
	}
}

// TestAuditPropertyDetectsMinting is the converse: the same machinery with
// an injected double-credit bug — admissions drawn from a bucket whose
// credit was silently doubled — must audit as overspend.
func TestAuditPropertyDetectsMinting(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := newSimClock()
		l := NewLedger(Config{Clock: clk.Now})
		cap := 100.0
		l.Install("mallory", cap, 0)
		sb := &shadowBucket{credit: cap, capacity: cap, rate: 0, last: clk.Now()}
		minted := false
		for step := 0; step < 500 && !minted; step++ {
			clk.Advance(time.Duration(rng.Intn(50)) * time.Millisecond)
			cost := 1 + rng.Float64()*10
			if !sb.tryConsume(clk.Now(), cost) {
				// The bug: an empty bucket is silently refilled to full
				// without a ledger grant.
				sb.credit = cap
				minted = true
				if !sb.tryConsume(clk.Now(), cost) {
					t.Fatal("minted bucket refused consume")
				}
			}
			l.Admit("mallory", cost)
		}
		if !minted {
			t.Fatal("schedule never exhausted the bucket")
		}
		// Drain the minted credit so admitted clearly exceeds budget.
		for sb.tryConsume(clk.Now(), 5) {
			l.Admit("mallory", 5)
		}
		if rep := l.Audit(); rep.Verdict != "overspend" {
			t.Fatalf("seed %d: minted credit not detected: %+v", seed, rep)
		}
	}
}

func TestConcurrentAdmitTotals(t *testing.T) {
	l := NewLedger(Config{})
	l.Install("hot", 1e9, 0)
	done := make(chan struct{})
	const workers, per = 8, 10000
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				l.Admit("hot", 1)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	rep := l.Audit()
	if rep.Admitted != workers*per {
		t.Fatalf("admitted %v, want %d (lost CAS updates)", rep.Admitted, workers*per)
	}
	if rep.Verdict != "ok" {
		t.Fatalf("verdict %s", rep.Verdict)
	}
}
