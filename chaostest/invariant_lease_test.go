package chaostest

// Invariant 5 — credit leases never inflate admission: a lease delegates a
// bounded slice of a bucket's refill rate to a router (PR 6, DESIGN.md §11),
// which then admits the key locally without touching the wire. The slice is
// RESERVED on the server bucket (its own refill drops by the leased rate),
// the prepaid burst is real credit consumed at grant time, and the TTL
// bounds every loss scenario: lost revocations, stale-epoch leases that
// were never invalidated, and buckets handed off while a lease was out all
// overhang for at most one TTL of leased rate. Aggregate admission — server
// decisions plus router-local lease admissions — must therefore stay within
//
//	K·C·(1+swaps) + K·r·t + (lease overhang term)
//
// under a cocktail of dropped revocations (P=1: every revocation is lost),
// suppressed stale-epoch invalidation, server receive loss, and a QoS
// server joining mid-load (epoch bump + bucket handoff + revocations).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/cluster"
	"repro/internal/failpoint"
	"repro/internal/transport"
)

func TestInvariantLeasesNeverInflateAdmission(t *testing.T) {
	const (
		numKeys  = 6
		capacity = 20.0
		rate     = 200.0 // per key per second: hot enough to lease
		routers  = 2
		fraction = 0.5
		leaseTTL = 300 * time.Millisecond
	)
	keys := make([]string, numKeys)
	rules := make([]bucket.Rule, numKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("lease-k%d", i)
		rules[i] = bucket.Rule{Key: keys[i], RefillRate: rate, Capacity: capacity, Credit: capacity}
	}

	c, err := cluster.New(cluster.Config{
		Routers:    routers,
		QoSServers: 1,
		Mode:       cluster.Gateway,
		Membership: true,
		Transport:  transport.Config{Timeout: 20 * time.Millisecond, Retries: 3},
		Lease:      true,
		// Low threshold: every hammered key leases almost immediately.
		LeaseHotRate:  5,
		LeaseFraction: fraction,
		LeaseTTL:      leaseTTL,
		Rules:         rules,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	t.Cleanup(failpoint.DisarmAll) // LIFO: disarm before teardown

	start := time.Now()

	// Prewarm every bucket so the K·C initial credit is on the books from
	// `start`.
	for _, key := range keys {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, err := c.Check(key); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("prewarm %s never succeeded", key)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// The fault cocktail, seeded for replay: EVERY lease revocation is lost
	// in delivery, stale-epoch leases are never invalidated at the router
	// (they keep admitting until TTL), and the server receive path drops
	// 15% (a partial partition; routers fall back between retries).
	for _, arm := range []struct {
		site string
		act  failpoint.Action
	}{
		{"qosserver/lease/revoke-drop", failpoint.Action{Kind: failpoint.Drop, P: 1, Seed: chaosSeed}},
		{"router/lease/stale", failpoint.Action{Kind: failpoint.Drop, P: 1, Seed: chaosSeed + 1}},
		{"qosserver/udp/recv", failpoint.Action{Kind: failpoint.Drop, P: 0.15, Seed: chaosSeed + 2}},
	} {
		if err := failpoint.Arm(arm.site, arm.act); err != nil {
			t.Fatal(err)
		}
	}

	// Hammer all keys from concurrent clients; halfway through, scale the
	// QoS tier out — epoch bump, bucket handoff, and a burst of revocations
	// that the armed failpoint guarantees are all lost.
	total := loadDuration(1600 * time.Millisecond)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				c.Check(keys[i%numKeys]) // denials and router defaults are expected
			}
		}(g)
	}
	time.Sleep(total / 2)
	swaps := 0
	if _, err := c.AddQoSServer(); err != nil {
		t.Logf("AddQoSServer: %v (handoff loss is an armed fault)", err)
	}
	swaps++
	time.Sleep(total / 2)
	stop.Store(true)
	wg.Wait()

	failpoint.DisarmAll()
	for _, site := range []string{"qosserver/lease/revoke-drop", "router/lease/stale", "qosserver/udp/recv"} {
		fp := failpoint.Lookup(site)
		if fp == nil || fp.Hits() == 0 {
			t.Fatalf("failpoint %s never fired — the fault was not engaged", site)
		}
	}

	// Aggregate admission = server-side allows + router-local lease allows.
	var allowed, leaseAllowed int64
	for _, p := range c.QoS {
		allowed += p.Master.Stats().Allowed
	}
	for _, r := range c.Routers {
		leaseAllowed += r.Stats().LeaseAllowed
	}
	elapsed := time.Since(start)

	// Bound: initial credit once per key per bucket generation (the scale
	// event may re-mint C on the new owner before the handoff lands), the
	// refill over the window, and the lease overhang — each router may hold
	// one lease per key at up to fraction·r, and a lost revocation or
	// suppressed stale-epoch check lets it spend for at most one TTL after
	// the grant stops being legitimate; renewal racing doubles the window
	// at worst.
	leaseTerm := float64(routers) * numKeys * fraction * rate * (2 * leaseTTL).Seconds()
	bound := numKeys*capacity*float64(1+swaps) + numKeys*rate*elapsed.Seconds() + leaseTerm
	got := float64(allowed + leaseAllowed)
	if got > bound {
		t.Errorf("aggregate admissions %.0f (server %d + leased %d) exceed bound %.1f over %v — leases minted credit",
			got, allowed, leaseAllowed, bound, elapsed)
	}

	// Liveness floor: lost revocations and a mid-load scale event must not
	// wedge admission — at least the initial credit mostly cleared, and the
	// lease fast path actually served traffic.
	if got < numKeys*capacity/2 {
		t.Errorf("aggregate admissions %.0f < %.0f — cluster wedged under lease faults", got, numKeys*capacity/2)
	}
	if leaseAllowed == 0 {
		t.Error("no router-local lease admissions — the lease path never engaged")
	}
}
