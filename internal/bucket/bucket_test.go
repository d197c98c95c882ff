package bucket

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Unix(1_000_000, 0)

func TestRuleValidate(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
		ok   bool
	}{
		{"valid", Rule{Key: "k", RefillRate: 10, Capacity: 100, Credit: 50}, true},
		{"full", Rule{Key: "k", RefillRate: 10, Capacity: 100, Credit: 100}, true},
		{"deny-all", DenyAll("k"), true},
		{"empty key", Rule{RefillRate: 1, Capacity: 1}, false},
		{"negative rate", Rule{Key: "k", RefillRate: -1, Capacity: 1}, false},
		{"negative capacity", Rule{Key: "k", RefillRate: 1, Capacity: -1}, false},
		{"credit above capacity", Rule{Key: "k", RefillRate: 1, Capacity: 10, Credit: 11}, false},
		{"negative credit", Rule{Key: "k", RefillRate: 1, Capacity: 10, Credit: -1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.rule.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestLimitedGuestStartsFull(t *testing.T) {
	r := LimitedGuest("g", 10, 100)
	if r.Credit != 100 || r.Capacity != 100 || r.RefillRate != 10 {
		t.Fatalf("unexpected guest rule: %+v", r)
	}
}

func TestBucketStartsFull(t *testing.T) {
	b := New(LimitedGuest("k", 100, 1000), t0)
	if got := b.Credit(t0); got != 1000 {
		t.Fatalf("initial credit = %v, want 1000", got)
	}
}

func TestConsumeDepletes(t *testing.T) {
	b := New(LimitedGuest("k", 0, 3), t0)
	for i := 0; i < 3; i++ {
		if !b.TryConsume(1, t0) {
			t.Fatalf("request %d denied with credit remaining", i)
		}
	}
	if b.TryConsume(1, t0) {
		t.Fatal("request admitted with empty bucket")
	}
	if got := b.Credit(t0); got != 0 {
		t.Fatalf("credit = %v, want 0", got)
	}
}

func TestDenyAllNeverAdmits(t *testing.T) {
	b := New(DenyAll("k"), t0)
	for i := 0; i < 10; i++ {
		if b.TryConsume(1, t0.Add(time.Duration(i)*time.Hour)) {
			t.Fatal("deny-all bucket admitted a request")
		}
	}
}

func TestLazyRefillEquationOne(t *testing.T) {
	// f(t) = C + (A-B)t with A=10/s, start full at C=100, consume nothing:
	// credit stays clamped at C.
	b := New(LimitedGuest("k", 10, 100), t0)
	if got := b.Credit(t0.Add(time.Hour)); got != 100 {
		t.Fatalf("credit = %v, want clamp at 100", got)
	}
	// Drain fully, then credit = A*t until the clamp.
	for i := 0; i < 100; i++ {
		if !b.TryConsume(1, t0) {
			t.Fatalf("drain request %d denied", i)
		}
	}
	if got := b.Credit(t0.Add(2 * time.Second)); math.Abs(got-20) > 1e-9 {
		t.Fatalf("credit after 2s = %v, want 20", got)
	}
	if got := b.Credit(t0.Add(time.Hour)); got != 100 {
		t.Fatalf("credit after 1h = %v, want clamp at 100", got)
	}
}

func TestBurstThenSteadyState(t *testing.T) {
	// Paper example: rate 100/s, capacity 1000. A full bucket allows a burst
	// of 500/s for 10s (5000 requests = 1000 credit + 100*10*... no: 1000 +
	// 100/s*10s = 2000 admitted over 10s). Verify total admitted over the
	// window equals capacity + rate*elapsed.
	b := New(LimitedGuest("k", 100, 1000), t0)
	admitted := 0
	// Offer 500 req/s for 10 seconds in 10ms steps (5 per step).
	for step := 0; step < 1000; step++ {
		now := t0.Add(time.Duration(step) * 10 * time.Millisecond)
		for r := 0; r < 5; r++ {
			if b.TryConsume(1, now) {
				admitted++
			}
		}
	}
	want := 1000 + 100*10 // capacity + refill over 10s
	if math.Abs(float64(admitted-want)) > 2 {
		t.Fatalf("admitted = %d, want ~%d", admitted, want)
	}
}

func TestClockBackwardsDoesNotInflate(t *testing.T) {
	b := New(LimitedGuest("k", 100, 100), t0)
	for i := 0; i < 100; i++ {
		b.TryConsume(1, t0)
	}
	// Clock jumps back one hour; credit must not grow and future refill must
	// anchor at the earlier instant without double-counting.
	if got := b.Credit(t0.Add(-time.Hour)); got != 0 {
		t.Fatalf("credit after backwards jump = %v, want 0", got)
	}
	if got := b.Credit(t0.Add(-time.Hour + time.Second)); math.Abs(got-100) > 1e-9 {
		t.Fatalf("credit 1s later = %v, want 100", got)
	}
}

func TestSetCreditClamps(t *testing.T) {
	b := New(LimitedGuest("k", 1, 50), t0)
	b.SetCredit(9999, t0)
	if got := b.Credit(t0); got != 50 {
		t.Fatalf("credit = %v, want clamp at 50", got)
	}
	b.SetCredit(-3, t0)
	if got := b.Credit(t0); got != 0 {
		t.Fatalf("credit = %v, want clamp at 0", got)
	}
}

// TestResetMatchesNew: a bucket reset in place reads exactly like a new one
// built from the same rule at the same instant, whatever it held before.
func TestResetMatchesNew(t *testing.T) {
	rules := []Rule{
		{Key: "k", RefillRate: 2, Capacity: 10, Credit: 4},
		{Key: "k", RefillRate: 0, Capacity: 3, Credit: 99}, // clamped as New clamps
		DenyAll("k"),
	}
	for _, r := range rules {
		b := New(LimitedGuest("k", 7, 70), t0)
		b.TryConsume(30, t0.Add(time.Second))
		at := t0.Add(2 * time.Second)
		b.Reset(r, at)
		fresh := New(r, at)
		later := at.Add(1500 * time.Millisecond)
		if b.Rule("k", later) != fresh.Rule("k", later) {
			t.Errorf("Reset(%+v) = %+v, New = %+v", r, b.Rule("k", later), fresh.Rule("k", later))
		}
	}
}

func TestTryConsumeNonPositive(t *testing.T) {
	b := New(LimitedGuest("k", 1, 10), t0)
	if b.TryConsume(0, t0) {
		t.Fatal("consumed zero credits")
	}
	if b.TryConsume(-5, t0) {
		t.Fatal("consumed negative credits")
	}
	if got := b.Credit(t0); got != 10 {
		t.Fatalf("credit changed: %v", got)
	}
}

func TestTryConsumeMoreThanOne(t *testing.T) {
	b := New(LimitedGuest("k", 0, 10), t0)
	if !b.TryConsume(7, t0) {
		t.Fatal("batch consume denied")
	}
	if b.TryConsume(4, t0) {
		t.Fatal("over-consume allowed")
	}
	if !b.TryConsume(3, t0) {
		t.Fatal("exact remaining denied")
	}
}

func TestRuleSnapshotRoundTrip(t *testing.T) {
	b := New(LimitedGuest("k", 5, 100), t0)
	b.TryConsume(30, t0)
	r := b.Rule("k", t0)
	if r.Key != "k" || r.RefillRate != 5 || r.Capacity != 100 || r.Credit != 70 {
		t.Fatalf("snapshot = %+v", r)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}
	// Restore elsewhere and continue.
	b2 := New(r, t0)
	if got := b2.Credit(t0); got != 70 {
		t.Fatalf("restored credit = %v, want 70", got)
	}
}

// Property: credit is always within [0, capacity] regardless of operation
// sequence (paper equation 2).
func TestCreditInvariantProperty(t *testing.T) {
	type op struct {
		Kind    uint8
		Amount  float64
		AfterMS uint16
	}
	f := func(rate, capacity float64, ops []op) bool {
		rate = math.Abs(math.Mod(rate, 1000))
		capacity = math.Abs(math.Mod(capacity, 10000))
		b := New(LimitedGuest("k", rate, capacity), t0)
		now := t0
		for _, o := range ops {
			now = now.Add(time.Duration(o.AfterMS) * time.Millisecond)
			amt := math.Abs(math.Mod(o.Amount, capacity+10))
			switch o.Kind % 4 {
			case 0:
				b.TryConsume(amt, now)
			case 1:
				b.Credit(now) // bring credit current, as any reader does
			case 2:
				b.SetCredit(o.Amount, now)
			case 3:
				b.TryConsume(1, now)
			}
			c := b.Credit(now)
			if c < 0 || c > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: with zero refill, total admitted credit never exceeds initial
// capacity (conservation).
func TestConservationProperty(t *testing.T) {
	f := func(capacity float64, requests []float64) bool {
		capacity = math.Abs(math.Mod(capacity, 1000))
		b := New(LimitedGuest("k", 0, capacity), t0)
		var spent float64
		for _, r := range requests {
			amt := math.Abs(math.Mod(r, 50)) + 0.001
			if b.TryConsume(amt, t0) {
				spent += amt
			}
		}
		return spent <= capacity+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentConsumeConservation(t *testing.T) {
	// 8 goroutines race to consume from a bucket with 10k credits and no
	// refill; exactly 10k requests must be admitted in total.
	b := New(LimitedGuest("k", 0, 10000), t0)
	var wg sync.WaitGroup
	total := new(int64)
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := int64(0)
			for i := 0; i < 5000; i++ {
				if b.TryConsume(1, t0) {
					local++
				}
			}
			mu.Lock()
			*total += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if *total != 10000 {
		t.Fatalf("admitted = %d, want exactly 10000", *total)
	}
}
