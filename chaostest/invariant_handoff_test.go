package chaostest

// Invariant 3 — handoff never inflates admission: scaling the QoS tier out
// under 20% packet loss moves bucket state between owners (push + min-merge,
// paper §III-C), and no interleaving of loss, retries, and handoff may mint
// credit. Aggregate server-side admissions stay within what the leaky
// buckets could ever grant: K·C initial credit, plus r·t refill, plus one
// capacity's worth of double-service per swap window while old and new
// owner both hold a copy of a moving bucket.
//
// This invariant needs server-side counters, so it runs the in-process
// cluster harness rather than separate processes; the failpoint registry is
// process-global, so one Arm covers every QoS server in the cluster.

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

func TestInvariantHandoffNeverInflatesAdmission(t *testing.T) {
	const (
		numKeys  = 8
		capacity = 10.0
		rate     = 50.0 // per key per second
	)
	keys := make([]string, numKeys)
	rules := make([]bucket.Rule, numKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("chaos-k%d", i)
		rules[i] = bucket.Rule{Key: keys[i], RefillRate: rate, Capacity: capacity, Credit: capacity}
	}

	c, err := cluster.New(cluster.Config{
		Routers:    1,
		QoSServers: 2,
		Mode:       cluster.Gateway,
		Membership: true,
		Transport:  transport.Config{Timeout: 10 * time.Millisecond, Retries: 3},
		Rules:      rules,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	t.Cleanup(failpoint.DisarmAll) // LIFO: disarm before teardown

	start := time.Now()

	// Prewarm every bucket so the K·C initial credit is on the books from
	// `start` and the UDP sockets are hot before loss begins.
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

	// 20% loss on the QoS servers' UDP receive path, seeded for replay.
	if err := failpoint.Arm("qosserver/udp/recv", failpoint.Action{
		Kind: failpoint.Drop, P: 0.2, Seed: chaosSeed,
	}); err != nil {
		t.Fatal(err)
	}

	// Hammer the stack from 4 clients while the tier scales out twice.
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
	phase := loadDuration(400 * time.Millisecond)
	time.Sleep(phase)
	if _, err := c.AddQoSServer(); err != nil {
		t.Fatalf("first scale-out: %v", err)
	}
	time.Sleep(phase)
	if _, err := c.AddQoSServer(); err != nil {
		t.Fatalf("second scale-out: %v", err)
	}
	time.Sleep(phase)
	stop.Store(true)
	wg.Wait()

	if err := failpoint.Disarm("qosserver/udp/recv"); err != nil {
		t.Fatal(err)
	}
	fp := failpoint.Lookup("qosserver/udp/recv")
	if fp == nil || fp.Hits() == 0 {
		t.Fatal("loss failpoint never fired — the fault was not engaged")
	}

	// Sum admissions across every server that ever owned a bucket, then
	// take elapsed: sampling time after counting makes the refill bound
	// conservative.
	var allowed int64
	for _, p := range c.QoS {
		allowed += p.Master.Stats().Allowed
	}
	elapsed := time.Since(start)

	const swaps = 2
	bound := numKeys*capacity*(1+swaps) + numKeys*rate*elapsed.Seconds()
	if float64(allowed) > bound {
		t.Errorf("aggregate admissions %d exceed C+r·t bound %.1f over %v — handoff minted credit",
			allowed, bound, elapsed)
	}

	// Liveness floor: loss and handoff must not have wedged admission
	// either — at least the initial credit mostly cleared.
	if float64(allowed) < numKeys*capacity/2 {
		t.Errorf("aggregate admissions %d < %.0f — cluster wedged under loss", allowed, numKeys*capacity/2)
	}
}
