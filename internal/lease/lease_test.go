package lease

import (
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/wire"
)

// fakeClock is a manually advanced clock shared by a test's manager, table,
// and buckets.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1000, 0)}
}

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func TestDemandEWMA(t *testing.T) {
	d := newDemand()
	clk := newFakeClock()
	// 200 decisions/second sustained across several windows.
	var rate float64
	for i := 0; i < 400; i++ {
		rate = d.Observe("k", clk.Now())
		clk.Advance(5 * time.Millisecond)
	}
	if rate < 150 || rate > 250 {
		t.Fatalf("EWMA after sustained 200/s = %.1f, want ~200", rate)
	}
	// A long idle gap decays the estimate on the next observation.
	clk.Advance(5 * time.Second)
	after := d.Observe("k", clk.Now())
	if after >= rate/2 {
		t.Fatalf("EWMA after 5s idle = %.1f, want well below %.1f", after, rate)
	}
}

func TestManagerGrantReservesRate(t *testing.T) {
	clk := newFakeClock()
	m := NewManager(ManagerConfig{Fraction: 0.5, TTL: time.Second, Clock: clk.Now})
	b := bucket.NewFull("k", 100, 100, clk.Now())

	g := m.Handle("k", "r1", wire.LeaseAsk{Op: wire.LeaseOpAsk, Demand: 80, Epoch: 7}, b)
	if g.Op != wire.LeaseOpGrant {
		t.Fatalf("ask: got op %d, want grant", g.Op)
	}
	// Demand 80 wants 80·headroom but the leasable fraction caps it at 50.
	if g.Rate != 50 {
		t.Fatalf("granted rate %.1f, want 50 (fraction cap)", g.Rate)
	}
	if g.Epoch != 7 || g.TTL != time.Second {
		t.Fatalf("grant echo: epoch %d ttl %v", g.Epoch, g.TTL)
	}
	if got := b.ReservedRate(); got != 50 {
		t.Fatalf("bucket reservation %.1f, want 50", got)
	}
	// Burst is prepaid from real credit: rate·ttl/2 = 25, available.
	if g.Burst != 25 {
		t.Fatalf("burst %.1f, want 25", g.Burst)
	}
	if credit := b.Credit(clk.Now()); credit != 75 {
		t.Fatalf("bucket credit after prepay %.1f, want 75", credit)
	}
	if m.LeasedRate() != 50 || m.Holders() != 1 {
		t.Fatalf("manager totals: rate %.1f holders %d", m.LeasedRate(), m.Holders())
	}

	// A second holder finds the leasable fraction exhausted.
	if g2 := m.Handle("k", "r2", wire.LeaseAsk{Op: wire.LeaseOpAsk, Demand: 80, Epoch: 7}, b); g2.Op != wire.LeaseOpDeny {
		t.Fatalf("second holder: got op %d, want deny", g2.Op)
	}
}

func TestManagerRenounceReleases(t *testing.T) {
	clk := newFakeClock()
	m := NewManager(ManagerConfig{Fraction: 0.5, TTL: time.Second, Clock: clk.Now})
	b := bucket.NewFull("k", 100, 100, clk.Now())
	m.Handle("k", "r1", wire.LeaseAsk{Op: wire.LeaseOpAsk, Demand: 80}, b)
	g := m.Handle("k", "r1", wire.LeaseAsk{Op: wire.LeaseOpRenounce}, b)
	if g.Op != 0 {
		t.Fatalf("renounce reply op %d, want 0 (no section)", g.Op)
	}
	if b.ReservedRate() != 0 || m.Holders() != 0 || m.LeasedRate() != 0 {
		t.Fatalf("after renounce: reserved %.1f holders %d leased %.1f", b.ReservedRate(), m.Holders(), m.LeasedRate())
	}
}

func TestManagerRenewalResizes(t *testing.T) {
	clk := newFakeClock()
	m := NewManager(ManagerConfig{Fraction: 0.5, TTL: time.Second, Clock: clk.Now})
	b := bucket.NewFull("k", 100, 100, clk.Now())
	m.Handle("k", "r1", wire.LeaseAsk{Op: wire.LeaseOpAsk, Demand: 80}, b) // rate 50
	clk.Advance(500 * time.Millisecond)
	// Demand cooled: renewal shrinks the share and releases the difference.
	g := m.Handle("k", "r1", wire.LeaseAsk{Op: wire.LeaseOpRenew, Demand: 10}, b)
	if g.Op != wire.LeaseOpGrant {
		t.Fatalf("renew: got op %d, want grant", g.Op)
	}
	want := 10 * headroom
	if g.Rate != want || b.ReservedRate() != want || m.LeasedRate() != want {
		t.Fatalf("after shrink: grant %.1f reserved %.1f leased %.1f, want %.1f",
			g.Rate, b.ReservedRate(), m.LeasedRate(), want)
	}
}

func TestManagerRevokeQueuesDelivery(t *testing.T) {
	clk := newFakeClock()
	m := NewManager(ManagerConfig{Fraction: 0.5, TTL: time.Second, Clock: clk.Now})
	b := bucket.NewFull("k", 100, 100, clk.Now())
	m.Handle("k", "r1", wire.LeaseAsk{Op: wire.LeaseOpAsk, Demand: 80, Epoch: 3}, b)
	if n := m.Revoke("k"); n != 1 {
		t.Fatalf("Revoke = %d, want 1", n)
	}
	if b.ReservedRate() != 0 || m.Holders() != 0 {
		t.Fatalf("revoke did not release: reserved %.1f holders %d", b.ReservedRate(), m.Holders())
	}
	g, ok := m.PendingRevoke("r1")
	if !ok || g.Op != wire.LeaseOpRevoke || g.Key != "k" || g.Epoch != 3 {
		t.Fatalf("pending revoke = %+v ok=%v", g, ok)
	}
	if _, ok := m.PendingRevoke("r1"); ok {
		t.Fatal("revocation delivered twice")
	}
	if _, ok := m.PendingRevoke("r2"); ok {
		t.Fatal("revocation delivered to the wrong holder")
	}
}

func TestManagerSweepExpires(t *testing.T) {
	clk := newFakeClock()
	m := NewManager(ManagerConfig{Fraction: 0.5, TTL: time.Second, Clock: clk.Now})
	b := bucket.NewFull("k", 100, 100, clk.Now())
	m.Handle("k", "r1", wire.LeaseAsk{Op: wire.LeaseOpAsk, Demand: 80}, b)
	clk.Advance(999 * time.Millisecond)
	if n := m.Sweep(clk.Now()); n != 0 {
		t.Fatalf("premature expiry: swept %d", n)
	}
	clk.Advance(2 * time.Millisecond)
	if n := m.Sweep(clk.Now()); n != 1 {
		t.Fatalf("Sweep past TTL = %d, want 1", n)
	}
	if b.ReservedRate() != 0 {
		t.Fatalf("expiry did not release reservation: %.1f", b.ReservedRate())
	}
}

func TestManagerTTLClamped(t *testing.T) {
	m := NewManager(ManagerConfig{TTL: 10 * time.Minute})
	if m.TTL() != wire.MaxLeaseTTL {
		t.Fatalf("TTL %v, want clamp to %v", m.TTL(), wire.MaxLeaseTTL)
	}
	// The wire carries whole milliseconds, so a shorter TTL is raised to 1ms
	// and its grants still encode.
	clk := newFakeClock()
	m = NewManager(ManagerConfig{TTL: 500 * time.Microsecond, Clock: clk.Now})
	if m.TTL() != time.Millisecond {
		t.Fatalf("TTL %v, want clamp to 1ms", m.TTL())
	}
	g := m.Handle("k", "r1", wire.LeaseAsk{Op: wire.LeaseOpAsk, Demand: 80, Epoch: 1}, bucket.NewFull("k", 100, 100, clk.Now()))
	if g.Op != wire.LeaseOpGrant {
		t.Fatalf("ask: got op %d, want grant", g.Op)
	}
	resp := wire.Response{ID: 1, Allow: true, Lease: g}
	buf, err := wire.EncodeResponse(resp)
	if err != nil {
		t.Fatalf("encode grant: %v", err)
	}
	if got, err := wire.DecodeResponse(buf); err != nil || got.Lease.TTL != time.Millisecond {
		t.Fatalf("decode grant: %+v, %v; want TTL 1ms", got.Lease, err)
	}
}

// pumpHot drives Route for key until the demand estimate crosses the
// table's hot threshold and an ask appears, or the call budget runs out.
func pumpHot(t *testing.T, tab *Table, clk *fakeClock, key string) Decision {
	t.Helper()
	for i := 0; i < 1000; i++ {
		d := tab.Route(key, 1)
		clk.Advance(5 * time.Millisecond) // 200 decisions/second
		if d.Ask.Op != 0 || d.Decided {
			return d
		}
	}
	t.Fatal("no lease ask after 1000 hot admissions")
	return Decision{}
}

func TestTableLeaseLifecycle(t *testing.T) {
	clk := newFakeClock()
	tab := NewTable(TableConfig{HotRate: 50, Clock: clk.Now})
	tab.SetEpoch(5)

	d := pumpHot(t, tab, clk, "k")
	if d.Ask.Op != wire.LeaseOpAsk {
		t.Fatalf("hot key produced op %d, want ask", d.Ask.Op)
	}
	if d.Ask.Epoch != 5 || d.Ask.Demand < 50 {
		t.Fatalf("ask = %+v, want epoch 5 and demand >= hot rate", d.Ask)
	}

	tab.Apply("k", wire.LeaseGrant{Op: wire.LeaseOpGrant, Rate: 100, Burst: 10, TTL: time.Second, Epoch: 5})
	if tab.Len() != 1 {
		t.Fatalf("Len = %d after grant", tab.Len())
	}

	// The burst admits immediately; spending beyond burst + accrual denies.
	allowed, denied := 0, 0
	for i := 0; i < 40; i++ {
		d := tab.Route("k", 1)
		if !d.Decided {
			t.Fatalf("admission %d not served locally: %+v", i, d)
		}
		if d.Allow {
			allowed++
		} else {
			denied++
		}
	}
	// Zero elapsed time: exactly the 10 burst credits are spendable.
	if allowed != 10 || denied != 30 {
		t.Fatalf("burst spend: allowed %d denied %d, want 10/30", allowed, denied)
	}
	// Credit accrues at the leased rate.
	clk.Advance(100 * time.Millisecond) // +10 credits
	allowed = 0
	for i := 0; i < 20; i++ {
		if d := tab.Route("k", 1); d.Decided && d.Allow {
			allowed++
		}
	}
	if allowed != 10 {
		t.Fatalf("accrual spend: allowed %d, want 10", allowed)
	}
}

func TestTableEpochInvalidation(t *testing.T) {
	clk := newFakeClock()
	tab := NewTable(TableConfig{HotRate: 50, Clock: clk.Now})
	tab.SetEpoch(5)
	tab.Apply("k", wire.LeaseGrant{Op: wire.LeaseOpGrant, Rate: 100, Burst: 10, TTL: time.Second, Epoch: 5})
	if d := tab.Route("k", 1); !d.Decided {
		t.Fatalf("lease not serving: %+v", d)
	}
	tab.SetEpoch(6) // view swap: the key may have a new owner
	if d := tab.Route("k", 1); d.Decided {
		t.Fatal("stale-epoch lease still admitting")
	}
	if tab.Len() != 0 {
		t.Fatalf("stale lease not dropped: Len = %d", tab.Len())
	}
	// A grant from the old epoch must not install either.
	tab.Apply("k", wire.LeaseGrant{Op: wire.LeaseOpGrant, Rate: 100, Burst: 10, TTL: time.Second, Epoch: 5})
	if tab.Len() != 0 {
		t.Fatal("stale-epoch grant installed")
	}
}

func TestTableExpiry(t *testing.T) {
	clk := newFakeClock()
	tab := NewTable(TableConfig{HotRate: 50, Clock: clk.Now})
	tab.Apply("k", wire.LeaseGrant{Op: wire.LeaseOpGrant, Rate: 100, Burst: 10, TTL: time.Second})
	clk.Advance(1100 * time.Millisecond)
	if d := tab.Route("k", 1); d.Decided {
		t.Fatal("expired lease still admitting")
	}
	if tab.Len() != 0 {
		t.Fatalf("expired lease not dropped: Len = %d", tab.Len())
	}
}

func TestTableRenewalWindow(t *testing.T) {
	clk := newFakeClock()
	tab := NewTable(TableConfig{HotRate: 50, Clock: clk.Now})
	// Keep the key hot so renewal (not renounce) is chosen.
	pumpHot(t, tab, clk, "k")
	tab.Apply("k", wire.LeaseGrant{Op: wire.LeaseOpGrant, Rate: 100, Burst: 10, TTL: time.Second})

	// Stay hot while the lease ages into its renewal window (<ttl/4 left).
	var d Decision
	for i := 0; i < 400; i++ {
		d = tab.Route("k", 1)
		clk.Advance(5 * time.Millisecond)
		if d.Ask.Op != 0 {
			break
		}
	}
	if d.Ask.Op != wire.LeaseOpRenew {
		t.Fatalf("in renewal window: got %+v, want renew ask", d)
	}
	// One renewal in flight at a time: the next admission is local again.
	if d := tab.Route("k", 1); !d.Decided {
		t.Fatalf("second admission during renewal not local: %+v", d)
	}
	// A failed exchange re-opens the window.
	tab.AskFailed("k")
	if d := tab.Route("k", 1); d.Ask.Op != wire.LeaseOpRenew {
		t.Fatalf("after AskFailed: got %+v, want renew ask", d)
	}
	// The renewal grant re-arms the lease in place.
	tab.Apply("k", wire.LeaseGrant{Op: wire.LeaseOpGrant, Rate: 100, Burst: 10, TTL: time.Second})
	if d := tab.Route("k", 1); !d.Decided {
		t.Fatalf("after renewal grant: %+v, want local", d)
	}
}

func TestTableRenounceColdKey(t *testing.T) {
	clk := newFakeClock()
	tab := NewTable(TableConfig{HotRate: 50, Clock: clk.Now})
	tab.Apply("k", wire.LeaseGrant{Op: wire.LeaseOpGrant, Rate: 100, Burst: 10, TTL: time.Second})
	// No demand history: the key reads as cold in the renewal window.
	clk.Advance(800 * time.Millisecond)
	d := tab.Route("k", 1)
	if d.Ask.Op != wire.LeaseOpRenounce {
		t.Fatalf("cold key in renewal window: got %+v, want renounce", d)
	}
	if tab.Len() != 0 {
		t.Fatal("renounced lease kept")
	}
}

func TestTableCrossKeyRevoke(t *testing.T) {
	clk := newFakeClock()
	tab := NewTable(TableConfig{HotRate: 50, Clock: clk.Now})
	tab.Apply("a", wire.LeaseGrant{Op: wire.LeaseOpGrant, Rate: 100, Burst: 10, TTL: time.Second})
	// A revocation for key "a" piggybacked on a response for key "b".
	tab.Apply("b", wire.LeaseGrant{Op: wire.LeaseOpRevoke, Key: "a"})
	if tab.Len() != 0 {
		t.Fatal("cross-key revocation ignored")
	}
}
