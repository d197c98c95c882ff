package qosserver

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestIntakeShardedStress runs every control-plane churn source at once
// against a four-worker server while decision traffic flows: handoff
// rebalancing to a second server and back, and rule-sync churn (geometry
// edits and delete/recreate). The point is the race surface: four workers
// sharing the intake FIFO and its CoDel controller on the hot path while
// the slow path rewrites the table under them. Run under -race (`make race-overload` runs it
// -count=20).
func TestIntakeShardedStress(t *testing.T) {
	const keys = 32
	rules := make([]bucket.Rule, keys)
	for i := range rules {
		rules[i] = bucket.Rule{Key: fmt.Sprintf("s%d", i), RefillRate: 5000, Capacity: 5000, Credit: 5000}
	}
	db := newDB(t, rules...)
	src := newServer(t, Config{
		Store: db, Workers: 4,
		ReplicationAddr: "127.0.0.1:0",
		CodelInterval:   20 * time.Millisecond,
		Audit:           true,
	})
	dst := newServer(t, Config{Store: newDB(t, rules...), ReplicationAddr: "127.0.0.1:0"})

	duration := 700 * time.Millisecond
	if raceEnabled {
		duration = 500 * time.Millisecond
	}
	stop := make(chan struct{})
	time.AfterFunc(duration, func() { close(stop) })
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Decision traffic from distinct client sockets, so the workers dequeue
	// interleaved flows.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := transport.Dial(src.Addr(), clientCfg)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; !stopped(); i++ {
				key := fmt.Sprintf("s%d", rng.Intn(keys))
				if _, err := cl.Do(wire.Request{Key: key, Cost: 1}); err != nil {
					// Timeouts can happen while the table churns; only a
					// transport-level failure is fatal.
					continue
				}
			}
		}(c)
	}

	// Handoff churn: shuttle half the key space to dst and back.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stopped(); i++ {
			half := func(key string) string {
				var n int
				fmt.Sscanf(key, "s%d", &n)
				if n%2 == i%2 {
					return dst.ReplicationAddr()
				}
				return ""
			}
			if _, err := src.Rebalance(half); err != nil {
				errs <- fmt.Errorf("rebalance src->dst: %w", err)
				return
			}
			if _, err := dst.Rebalance(func(string) string { return src.ReplicationAddr() }); err != nil {
				errs <- fmt.Errorf("rebalance dst->src: %w", err)
				return
			}
		}
	}()

	// Rule-sync churn: geometry edits and delete/recreate force the sync
	// path's update and evict branches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stopped(); i++ {
			k := fmt.Sprintf("s%d", i%8)
			if err := db.Put(bucket.Rule{Key: k, RefillRate: 5000, Capacity: float64(4000 + (i%4)*500), Credit: 4000}); err != nil {
				errs <- err
				return
			}
			if i%5 == 4 {
				if _, err := db.Delete(k); err != nil {
					errs <- err
					return
				}
			}
			src.SyncOnce()
			if i%5 == 4 { // restore so traffic keeps hitting a known rule
				if err := db.Put(rules[i%8]); err != nil {
					errs <- err
					return
				}
				src.SyncOnce()
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := src.Stats()
	if st.Decisions == 0 {
		t.Fatal("no decisions made under churn")
	}
	if st.Dropped != 0 {
		t.Errorf("closed-loop traffic lost %d datagrams to full FIFOs", st.Dropped)
	}
	if rep := src.AuditReport(); rep.Verdict != "ok" {
		t.Errorf("audit verdict %q after churn: %+v", rep.Verdict, rep.Overspent)
	}
	// The server still answers cleanly after the storm.
	cl, err := transport.Dial(src.Addr(), clientCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Do(wire.Request{Key: "s1", Cost: 1})
	if err != nil || resp.Status == wire.StatusError {
		t.Fatalf("post-churn decision: %+v %v", resp, err)
	}
}
