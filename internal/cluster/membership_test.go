package cluster

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/router"
	"repro/internal/wire"
)

// tables snapshots the QoS masters' tables: the master holding each
// resident key, and its credit. A key resident on two masters (a handoff
// that forgot to delete) fails the test.
func tables(t *testing.T, c *Cluster) (owner map[string]string, credit map[string]float64) {
	t.Helper()
	owner, credit = make(map[string]string), make(map[string]float64)
	c.mu.Lock()
	pairs := append([]*QoSPair(nil), c.QoS...)
	c.mu.Unlock()
	for _, p := range pairs {
		for _, b := range p.Master.SnapshotBuckets(0) {
			if prev, dup := owner[b.Key]; dup {
				t.Errorf("key %q resident on %s and %s", b.Key, prev, p.Name)
			}
			owner[b.Key], credit[b.Key] = p.Name, b.Credit
		}
	}
	return owner, credit
}

// sumCredits sums the remaining credit of every rule key across the QoS
// masters' tables, counting absent keys at full capacity (they were never
// consumed).
func sumCredits(t *testing.T, c *Cluster, nKeys int, capacity float64) float64 {
	t.Helper()
	_, found := tables(t, c)
	total := 0.0
	for i := 0; i < nKeys; i++ {
		if credit, ok := found[fmt.Sprintf("user-%d", i)]; ok {
			total += credit
		} else {
			total += capacity
		}
	}
	return total
}

// TestScaleOutMidLoadConservesCredit is the membership acceptance
// scenario: grow the QoS tier 4→5 servers while load is flowing, with live
// bucket handoff. Asserts (a) at most 25% of keys
// change owner, (b) total outstanding credit is conserved, and (c) no
// request is ever answered by the router's default-reply path.
func TestScaleOutMidLoadConservesCredit(t *testing.T) {
	const (
		nKeys    = 200
		capacity = 50.0
	)
	c := newCluster(t, Config{
		Routers:    2,
		QoSServers: 4,
		Membership: true,
		Rules:      rules(nKeys, 0, capacity), // rate 0: exact accounting
	})
	if got := c.View(); got.Epoch != 4 || len(got.Backends) != 4 {
		t.Fatalf("initial view = %+v", got)
	}
	oldView := c.View()

	var allowed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			checker := c.Checker()
			for i := w; ; i += 4 {
				select {
				case <-stop:
					return
				default:
				}
				ok, err := checker.Check(fmt.Sprintf("user-%d", i%nKeys))
				if err != nil {
					t.Errorf("check: %v", err)
					return
				}
				if ok {
					allowed.Add(1)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}(w)
	}

	time.Sleep(80 * time.Millisecond) // consume meaningfully before scaling
	pair, err := c.AddQoSServer()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond) // keep loading on the wider tier
	close(stop)
	wg.Wait()

	newView := c.View()
	if newView.Epoch != oldView.Epoch+1 || len(newView.Backends) != 5 {
		t.Fatalf("post-scale view = %+v", newView)
	}
	if c.qosServerCount() != 5 {
		t.Fatalf("QoS servers = %d", c.qosServerCount())
	}

	// (a) Owner stability: over the real rule keys, at most 25% moved —
	// the jump-hash K/N bound (expected 1/5 = 20%).
	moved := 0
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("user-%d", i)
		a, _ := oldView.Owner(key)
		b, _ := newView.Owner(key)
		if a != b {
			moved++
			if b != pair.Name {
				t.Fatalf("key %q moved %s→%s, not onto the new server", key, a, b)
			}
		}
	}
	if moved == 0 || moved > nKeys/4 {
		t.Fatalf("moved %d/%d keys, want (0, %d]", moved, nKeys, nKeys/4)
	}

	// (b) Credit conservation: initial credit == remaining + admitted.
	initial := float64(nKeys) * capacity
	remaining := sumCredits(t, c, nKeys, capacity)
	admitted := float64(allowed.Load())
	if admitted < 100 {
		t.Fatalf("load too light to be meaningful: %v admitted", admitted)
	}
	drift := math.Abs(initial - remaining - admitted)
	// Tolerance: in-flight decisions during the swap/handoff window. A
	// stranded-state failure mode would drift by thousands (re-minted
	// capacity on ~20% of keys); one refill tick of slack is 1% here.
	if tol := initial * 0.01; drift > tol {
		t.Fatalf("credit drift %v > %v (initial %v, remaining %v, admitted %v)",
			drift, tol, initial, remaining, admitted)
	}

	// (c) No request was answered by the default-reply path.
	if n := c.totalDefaultReplies(); n != 0 {
		t.Fatalf("default replies during scale-out: %d", n)
	}

	// The new server actually took over its share of traffic.
	if pair.Master.Stats().Decisions == 0 {
		t.Fatal("new QoS server made no decisions")
	}
	// Routers adopted the new epoch and recorded the remap fraction.
	c.mu.Lock()
	routers := append([]*router.Router(nil), c.Routers...)
	c.mu.Unlock()
	for _, r := range routers {
		st := r.Stats()
		if st.Epoch != newView.Epoch || st.ViewSwaps == 0 {
			t.Fatalf("router did not adopt the new view: %+v", st)
		}
		if st.LastRemapFraction <= 0 || st.LastRemapFraction > 0.3 {
			t.Fatalf("recorded remap fraction = %v, want ~0.2", st.LastRemapFraction)
		}
	}
}

func TestScaleInHandsBucketsBack(t *testing.T) {
	const (
		nKeys    = 120
		capacity = 20.0
	)
	c := newCluster(t, Config{
		Routers:    1,
		QoSServers: 3,
		Membership: true,
		Rules:      rules(nKeys, 0, capacity),
	})
	// Warm and consume: 3 credits per key.
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("user-%d", i)
		for j := 0; j < 3; j++ {
			ok, err := c.Check(key)
			if err != nil || !ok {
				t.Fatalf("%s warm %d: ok=%v err=%v", key, j, ok, err)
			}
		}
	}
	if err := c.RemoveQoSServer(); err != nil {
		t.Fatal(err)
	}
	if c.qosServerCount() != 2 || len(c.View().Backends) != 2 {
		t.Fatalf("post-scale-in: %d servers, view %+v", c.qosServerCount(), c.View())
	}
	// Quiescent scale-in: conservation is exact.
	want := float64(nKeys)*capacity - float64(3*nKeys)
	if got := sumCredits(t, c, nKeys, capacity); math.Abs(got-want) > 1e-6 {
		t.Fatalf("credits after scale-in = %v, want %v", got, want)
	}
	if n := c.totalDefaultReplies(); n != 0 {
		t.Fatalf("default replies during scale-in: %d", n)
	}
	// The survivors keep serving every key with the carried-over credit.
	for i := 0; i < nKeys; i++ {
		if ok, err := c.Check(fmt.Sprintf("user-%d", i)); err != nil || !ok {
			t.Fatalf("user-%d after scale-in: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestScaleEventsMoveOnlyTheNewOwnersKeys measures, from where the buckets
// actually live, what a join and a leave move. Join 2→3: at most 1/3 + 0.02
// of the keys move, every one onto the new server, none between the old
// two. Leave 3→2: exactly the departing server's keys move, each back to its
// owner before the join. Credit is conserved exactly through both, no reply
// is fabricated, and every master's audit stays ok.
func TestScaleEventsMoveOnlyTheNewOwnersKeys(t *testing.T) {
	const (
		nKeys    = 10000
		capacity = 10.0
	)
	c := newCluster(t, Config{QoSServers: 2, Membership: true, Audit: true, Rules: rules(nKeys, 0, capacity)})
	spent := 0
	spendOneEach := func() { // then check that credit is conserved exactly
		t.Helper()
		for i := 0; i < nKeys; i++ {
			if resp := c.Routers[0].Route(wire.Request{Key: fmt.Sprintf("user-%d", i), Cost: 1}); !resp.Allow || resp.Status != wire.StatusOK {
				t.Fatalf("user-%d: %+v", i, resp)
			}
		}
		spent++
		if got, want := sumCredits(t, c, nKeys, capacity), nKeys*(capacity-float64(spent)); got != want {
			t.Fatalf("credits = %v, want %v", got, want)
		}
	}

	spendOneEach()
	before, _ := tables(t, c)
	pair, err := c.AddQoSServer()
	if err != nil {
		t.Fatal(err)
	}
	joined, _ := tables(t, c)
	moved := 0
	for key, was := range before {
		if now := joined[key]; now != was {
			moved++
			if now != pair.Name {
				t.Fatalf("join: %s moved %s→%s, not onto the new server %s", key, was, now, pair.Name)
			}
		}
	}
	bound := 1.0/3 + 0.02
	if limit := int(bound * nKeys); len(joined) != nKeys || moved == 0 || moved > limit {
		t.Fatalf("join moved %d of %d resident keys, want (0, %d]", moved, len(joined), limit)
	}

	spendOneEach()
	if err := c.RemoveQoSServer(); err != nil {
		t.Fatal(err)
	}
	spendOneEach()
	left, _ := tables(t, c)
	for key, was := range before {
		if left[key] != was {
			t.Fatalf("leave: %s on %q, want its pre-join owner %s", key, left[key], was)
		}
	}
	if n := c.totalDefaultReplies(); n != 0 {
		t.Fatalf("default replies through the scale events: %d", n)
	}
	for _, p := range c.QoS {
		if rep := p.Master.AuditReport(); rep.Verdict != "ok" {
			t.Fatalf("%s audit: %+v", p.Name, rep)
		}
	}
}

func TestQoSScalingRequiresMembership(t *testing.T) {
	c := newCluster(t, Config{QoSServers: 1})
	if _, err := c.AddQoSServer(); err == nil {
		t.Fatal("AddQoSServer without membership succeeded")
	}
	if err := c.RemoveQoSServer(); err == nil {
		t.Fatal("RemoveQoSServer without membership succeeded")
	}
}

func TestRemoveLastQoSServerRefused(t *testing.T) {
	c := newCluster(t, Config{QoSServers: 1, Membership: true})
	if err := c.RemoveQoSServer(); err == nil {
		t.Fatal("removed the last QoS server")
	}
}
