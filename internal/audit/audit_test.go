package audit

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
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

// book is a test owner of accounts, one per key, made on first use.
type book map[string]*Account

func (b book) at(key string) *Account {
	a := b[key]
	if a == nil {
		a = new(Account)
		b[key] = a
	}
	return a
}

// all yields every account with its key, as an owner's table does.
func (b book) all(yield func(string, *Account) bool) {
	for k, a := range b {
		if !yield(k, a) {
			return
		}
	}
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
	bk := book{}
	rep := l.Audit(bk.all)
	if rep.Verdict != "ok" || rep.Buckets != 0 {
		t.Fatalf("empty ledger audit = %+v, want ok/0 buckets", rep)
	}
}

// TestAuditPassAllocatesNothing: a periodic pass over accounts with no
// overspend reuses the ledger's pass state.
func TestAuditPassAllocatesNothing(t *testing.T) {
	l := NewLedger(Config{})
	bk := book{}
	for i := 0; i < 1000; i++ {
		l.Install(bk.at(fmt.Sprintf("k%d", i)), 10, 1)
	}
	l.Audit(bk.all)
	if n := testing.AllocsPerRun(20, func() { l.Audit(bk.all) }); n != 0 {
		t.Fatalf("an audit pass allocates %v times, want 0", n)
	}
	// Passes side by side share no list: each still sees every bucket.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if rep := l.Audit(bk.all); rep.Buckets != 1000 || rep.Verdict != "ok" {
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
	var a Account
	l.Install(&a, 1, 1)
	l.Admit(&a, 1)
	if l.Overspends() != 0 || a.gen != 0 || a.admitted() != 0 {
		t.Fatal("nil ledger must be inert")
	}
}

// TestAdmitAllocatesNothing: Admit is the hot-path hook, one lock-free add
// on the caller's account.
func TestAdmitAllocatesNothing(t *testing.T) {
	l := NewLedger(Config{})
	var a Account
	l.Install(&a, 1e9, 0)
	if n := testing.AllocsPerRun(100, func() { l.Admit(&a, 1) }); n != 0 {
		t.Fatalf("Admit allocates %v times, want 0", n)
	}
}

func TestAdmitWithinBudgetStaysOK(t *testing.T) {
	clk := newSimClock()
	l := NewLedger(Config{Clock: clk.Now})
	bk := book{}
	l.Install(bk.at("alice"), 100, 10)
	l.Admit(bk.at("alice"), 100) // the full installed credit, instantly
	clk.Advance(5 * time.Second)
	l.Admit(bk.at("alice"), 49) // just under the 50 accrued
	rep := l.Audit(bk.all)
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
	bk := book{}
	l.Install(bk.at("bob"), 10, 0)
	l.Install(bk.at("bob"), 5, 0) // second grant: generation 2, budget 15
	l.Admit(bk.at("bob"), 40)     // minted credit: 25 over budget
	rep := l.Audit(bk.all)
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
	rep = l.Audit(bk.all)
	if rep.Verdict != "overspend" || l.Overspends() != 1 {
		t.Fatalf("second pass: verdict=%s counter=%d, want overspend/1", rep.Verdict, l.Overspends())
	}
	// A reinstall opens a new generation; a fresh overspend counts again.
	l.Install(bk.at("bob"), 1, 0)
	l.Admit(bk.at("bob"), 100)
	l.Audit(bk.all)
	if l.Overspends() != 2 {
		t.Fatalf("counter=%d after new-generation overspend, want 2", l.Overspends())
	}
}

func TestRateChangeFoldsAccrual(t *testing.T) {
	clk := newSimClock()
	l := NewLedger(Config{Clock: clk.Now})
	bk := book{}
	l.Install(bk.at("carol"), 0, 100) // 100/s
	clk.Advance(2 * time.Second)
	l.Admit(bk.at("carol"), 200)    // exactly the accrual at the old rate
	l.Install(bk.at("carol"), 0, 1) // rate drops to 1/s; the 200 must stay budgeted
	clk.Advance(1 * time.Second)
	l.Admit(bk.at("carol"), 1)
	if rep := l.Audit(bk.all); rep.Verdict != "ok" {
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
			bk := book{}
			shadows := map[string]*shadowBucket{}
			keys := []string{"alice", "bob", "carol", "dave", "erin"}

			install := func(key string) {
				cap := 1 + rng.Float64()*1000
				credit := rng.Float64() * cap
				rate := rng.Float64() * 100
				l.Install(bk.at(key), credit, rate)
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
						l.Admit(bk.at(key), cost)
					}
				case op < 17: // wholesale reinstall (sync geometry change, handoff)
					install(key)
				case op < 18: // min-merge: credit can only drop, no grant
					sb.refill(clk.Now())
					sb.credit = math.Min(sb.credit, rng.Float64()*sb.capacity)
				default: // audit mid-schedule: must already hold
					if rep := l.Audit(bk.all); rep.Verdict != "ok" {
						t.Fatalf("step %d: mid-schedule overspend: %+v", step, rep.Overspent)
					}
				}
			}
			rep := l.Audit(bk.all)
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
		bk := book{}
		cap := 100.0
		l.Install(bk.at("mallory"), cap, 0)
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
			l.Admit(bk.at("mallory"), cost)
		}
		if !minted {
			t.Fatal("schedule never exhausted the bucket")
		}
		// Drain the minted credit so admitted clearly exceeds budget.
		for sb.tryConsume(clk.Now(), 5) {
			l.Admit(bk.at("mallory"), 5)
		}
		if rep := l.Audit(bk.all); rep.Verdict != "overspend" {
			t.Fatalf("seed %d: minted credit not detected: %+v", seed, rep)
		}
	}
}

func TestConcurrentAdmitTotals(t *testing.T) {
	l := NewLedger(Config{})
	bk := book{}
	hot := bk.at("hot")
	l.Install(hot, 1e9, 0)
	done := make(chan struct{})
	const workers, per = 8, 10000
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				l.Admit(hot, 1)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	rep := l.Audit(bk.all)
	if rep.Admitted != workers*per {
		t.Fatalf("admitted %v, want %d (lost CAS updates)", rep.Admitted, workers*per)
	}
	if rep.Verdict != "ok" {
		t.Fatalf("verdict %s", rep.Verdict)
	}
}

// refAccount is the reference model of an account: the ledger's arithmetic
// as it was with two sums, a 64-bit generation and a flag of its own.
type refAccount struct {
	admitted, installed, accrued, rate float64
	anchorNs                           int64
	gen                                uint64
	flagged                            bool
}

func (r *refAccount) install(nowNs int64, credit, rate float64) {
	if dt := nowNs - r.anchorNs; r.gen > 0 && dt > 0 && r.rate > 0 {
		r.accrued += r.rate * float64(dt) / 1e9
	}
	r.installed += credit
	r.rate = rate
	r.anchorNs = nowNs
	r.gen++
	r.flagged = false
}

func (r *refAccount) budget(nowNs int64) float64 {
	b := r.installed + r.accrued
	if dt := nowNs - r.anchorNs; dt > 0 && r.rate > 0 {
		b += r.rate * float64(dt) / 1e9
	}
	return b
}

// TestLedgerMatchesReferenceModel runs random install, admit, clock and
// audit sequences against the ledger and the reference model: every pass
// reaches the same verdict for every account, names the same generation,
// counts an overspend once per generation, and the budgets agree within
// the pass's tolerance. Admissions are not gated, so overspends happen.
func TestLedgerMatchesReferenceModel(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	overspends := 0
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := newSimClock()
		fired := 0
		l := NewLedger(Config{Clock: clk.Now, OnOverspend: func(Overspend) { fired++ }})
		accts := make([]Account, len(keys))
		refs := make([]refAccount, len(keys))
		// The pass walks the keys in order, so its report lines up with refs.
		all := func(yield func(string, *Account) bool) {
			for i, k := range keys {
				if !yield(k, &accts[i]) {
					return
				}
			}
		}
		wantFresh := 0
		for step := 0; step < 3000; step++ {
			i := rng.Intn(len(keys))
			switch op := rng.Intn(10); {
			case op < 2:
				clk.Advance(time.Duration(rng.Intn(500)) * time.Millisecond)
			case op < 4:
				credit, rate := rng.Float64()*100, rng.Float64()*50
				if rng.Intn(4) == 0 {
					rate = 0
				}
				l.Install(&accts[i], credit, rate)
				refs[i].install(clk.Now().UnixNano(), credit, rate)
			case op < 9:
				cost := 1 + rng.Float64()*10
				l.Admit(&accts[i], cost)
				refs[i].admitted += cost
			default:
				rep := l.Audit(all)
				var over []Overspend
				for j, k := range keys {
					r := &refs[j]
					budget := r.budget(rep.Nanos)
					eps := 1e-6 + 1e-9*math.Abs(budget)
					l.mu.Lock()
					got := accts[j].budget(rep.Nanos)
					l.mu.Unlock()
					if math.Abs(got-budget) > eps {
						t.Fatalf("seed %d step %d: %s budget %v, model %v", seed, step, k, got, budget)
					}
					if accts[j].admitted() != r.admitted {
						t.Fatalf("seed %d step %d: %s admitted %v, model %v", seed, step, k, accts[j].admitted(), r.admitted)
					}
					if r.admitted-budget > eps {
						over = append(over, Overspend{Key: k, Generation: r.gen})
						if !r.flagged {
							r.flagged = true
							wantFresh++
						}
					}
				}
				if len(rep.Overspent) != len(over) {
					t.Fatalf("seed %d step %d: %d overspent, model %d: %+v", seed, step, len(rep.Overspent), len(over), rep.Overspent)
				}
				for j, o := range over {
					if got := rep.Overspent[j]; got.Key != o.Key || got.Generation != o.Generation {
						t.Fatalf("seed %d step %d: overspend %s gen %d, model %s gen %d", seed, step, got.Key, got.Generation, o.Key, o.Generation)
					}
				}
				want := "ok"
				if len(over) > 0 {
					want = "overspend"
				}
				if rep.Verdict != want {
					t.Fatalf("seed %d step %d: verdict %s, model %s", seed, step, rep.Verdict, want)
				}
				if l.Overspends() != int64(wantFresh) || fired != wantFresh {
					t.Fatalf("seed %d step %d: counted %d, fired %d, model %d", seed, step, l.Overspends(), fired, wantFresh)
				}
			}
		}
		overspends += wantFresh
	}
	if overspends < 100 {
		t.Fatalf("%d overspends over all sequences; the comparison saw mostly ok", overspends)
	}
}

// TestGenerationWrapsPastZero: past 2^31−1 installs of one bucket the
// generation restarts at 1, and an overspend is still reported with it.
func TestGenerationWrapsPastZero(t *testing.T) {
	l := NewLedger(Config{})
	var a Account
	a.gen = flagged - 1 | flagged // the last generation, its overspend reported
	l.Install(&a, 1, 0)
	l.Admit(&a, 2)
	rep := l.Audit(func(yield func(string, *Account) bool) { yield("k", &a) })
	if len(rep.Overspent) != 1 || rep.Overspent[0].Generation != 1 || l.Overspends() != 1 {
		t.Fatalf("after the wrap: %+v, counted %d; want generation 1, counted once", rep, l.Overspends())
	}
}

// TestLedgerConcurrentInstallAdmitAudit runs installs (with rate changes),
// admissions and audit passes side by side on shared accounts under the
// ledger's one mutex (make race-overload runs it under -race). Each honest
// account is granted exactly what will be admitted from it, so any budget a
// racing install or pass tore would read as an overspend; one minted
// account is overspent once and must be counted once however many passes
// see it.
func TestLedgerConcurrentInstallAdmitAudit(t *testing.T) {
	const accounts, admitters, per = 8, 4, 2000
	var fired atomic.Int64
	l := NewLedger(Config{OnOverspend: func(o Overspend) {
		if o.Key != "minted" {
			t.Errorf("honest account reported: %+v", o)
		}
		fired.Add(1)
	}})
	var accts [accounts]Account
	for i := range accts {
		l.Install(&accts[i], admitters*per/accounts, 0)
	}
	var minted Account
	l.Install(&minted, 10, 0)
	l.Admit(&minted, 20)
	all := func(yield func(string, *Account) bool) {
		for i := range accts {
			if !yield(fmt.Sprint(i), &accts[i]) {
				return
			}
		}
		yield("minted", &minted)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var side sync.WaitGroup
	// Reinstalls grant nothing more but move the rate: 0 → r → 0, so the
	// accrual between them is folded in while passes read the account.
	side.Add(1)
	go func() {
		defer side.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			l.Install(&accts[n%accounts], 0, float64(n%3))
		}
	}()
	for range 2 {
		side.Add(1)
		go func() {
			defer side.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, o := range l.Audit(all).Overspent {
					if o.Key != "minted" {
						t.Errorf("honest account over budget mid-run: %+v", o)
					}
				}
			}
		}()
	}
	for w := range admitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range per {
				l.Admit(&accts[(w+i)%accounts], 1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	side.Wait()

	rep := l.Audit(all)
	if rep.Admitted != admitters*per+20 {
		t.Fatalf("admitted %v, want %d", rep.Admitted, admitters*per+20)
	}
	for i := range accts {
		if got := accts[i].admitted(); got != admitters*per/accounts {
			t.Errorf("account %d admitted %v, want %d", i, got, admitters*per/accounts)
		}
	}
	if len(rep.Overspent) != 1 || rep.Overspent[0].Key != "minted" {
		t.Fatalf("overspent %+v, want the minted account alone", rep.Overspent)
	}
	if l.Overspends() != 1 || fired.Load() != 1 {
		t.Fatalf("minted overspend counted %d, hook fired %d; want 1 and 1", l.Overspends(), fired.Load())
	}
}
