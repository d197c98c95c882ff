package qosserver

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/store"
	"repro/internal/wire"
)

func newHandoffServer(t *testing.T, rules ...bucket.Rule) *Server {
	t.Helper()
	return newPeer(t, newDB(t, rules...))
}

// newPeer starts a server with a replication listener on db.
func newPeer(t *testing.T, db *store.Store) *Server {
	t.Helper()
	return newServer(t, Config{Store: db, ReplicationAddr: "127.0.0.1:0"})
}

// TestRebalanceMovesCreditsToNewOwner hands half the keys of one server to
// another and checks the exact credits (not the database's full capacity)
// arrive, the moved keys leave the source table, and the kept keys stay.
func TestRebalanceMovesCreditsToNewOwner(t *testing.T) {
	var rules []bucket.Rule
	for i := 0; i < 10; i++ {
		rules = append(rules, bucket.Rule{Key: fmt.Sprintf("u%d", i), RefillRate: 0, Capacity: 10, Credit: 10})
	}
	src := newHandoffServer(t, rules...)
	dst := newHandoffServer(t, rules...)

	// Warm every rule into the table, then consume i credits from key u<i>
	// so every key has a distinct credit.
	if err := src.Preload(); err != nil {
		t.Fatal(err)
	}
	for i, r := range rules {
		for j := 0; j < i; j++ {
			if resp := src.Decide(wire.Request{Key: r.Key, Cost: 1}); !resp.Allow {
				t.Fatalf("%s consume %d denied", r.Key, j)
			}
		}
	}
	if src.TableLen() != 10 {
		t.Fatalf("source table len = %d", src.TableLen())
	}

	// Keys u5..u9 move to dst.
	moved, err := src.Rebalance(func(key string) string {
		if key >= "u5" {
			return dst.ReplicationAddr()
		}
		return ""
	})
	if err != nil || moved != 5 {
		t.Fatalf("moved = %d err = %v", moved, err)
	}
	if src.TableLen() != 5 {
		t.Fatalf("source table len after rebalance = %d", src.TableLen())
	}
	if dst.TableLen() != 5 {
		t.Fatalf("dest table len = %d", dst.TableLen())
	}
	now := time.Now()
	for i := 5; i < 10; i++ {
		b := dst.table.Get(fmt.Sprintf("u%d", i))
		if b == nil {
			t.Fatalf("u%d missing on destination", i)
		}
		want := float64(10 - i) // capacity 10 minus i consumed, rate 0
		if got := b.Credit(now); math.Abs(got-want) > 1e-9 {
			t.Fatalf("u%d credit = %v, want %v", i, got, want)
		}
	}
	// u0 consumed nothing; the Cost: 0 decide was denied but made it resident.
	if b := src.table.Get("u0"); b == nil || b.Credit(now) != 10 {
		t.Fatal("u0 disturbed by rebalance")
	}
}

// TestRebalanceLeavesNoAccountBehind: once every key has moved to a peer,
// the source audits nothing — a moved key is audited only on its new owner.
func TestRebalanceLeavesNoAccountBehind(t *testing.T) {
	src := newServer(t, Config{Store: newDB(t), ReplicationAddr: "127.0.0.1:0", Audit: true, AuditInterval: time.Hour})
	dst := newHandoffServer(t)
	for i := 0; i < 100; i++ {
		src.Decide(wire.Request{Key: fmt.Sprintf("m%d", i), Cost: 1})
	}
	if moved, err := src.Rebalance(func(string) string { return dst.ReplicationAddr() }); err != nil || moved != 100 {
		t.Fatalf("moved = %d err = %v", moved, err)
	}
	if n := gauge(t, src, "janus_qos_audit_buckets"); n != 0 {
		t.Errorf("source janus_qos_audit_buckets = %v after every key moved, want 0", n)
	}
	if rep := src.AuditReport(); rep.Buckets != 0 {
		t.Errorf("source audit pass covered %d buckets, want 0", rep.Buckets)
	}
}

// TestRebalanceMinMerge checks the conservative merge: a bucket already
// present on the destination with the same geometry keeps the LOWER of the
// two credits, so no handoff can refund consumed credit.
func TestRebalanceMinMerge(t *testing.T) {
	rule := bucket.Rule{Key: "k", RefillRate: 0, Capacity: 10, Credit: 10}
	src := newHandoffServer(t, rule)
	dst := newHandoffServer(t, rule)

	// src consumed 7 (credit 3); dst consumed 2 (credit 8).
	for i := 0; i < 7; i++ {
		src.Decide(wire.Request{Key: "k", Cost: 1})
	}
	for i := 0; i < 2; i++ {
		dst.Decide(wire.Request{Key: "k", Cost: 1})
	}
	if moved, err := src.Rebalance(func(string) string { return dst.ReplicationAddr() }); err != nil || moved != 1 {
		t.Fatalf("moved = %d err = %v", moved, err)
	}
	if got := dst.table.Get("k").Credit(time.Now()); math.Abs(got-3) > 1e-9 {
		t.Fatalf("merged credit = %v, want min(3, 8) = 3", got)
	}

	// The reverse direction: incoming credit higher than resident — keep
	// the resident (lower) credit.
	src2 := newHandoffServer(t, rule)
	src2.Decide(wire.Request{Key: "k", Cost: 1}) // credit 9 on src2
	if _, err := src2.Rebalance(func(string) string { return dst.ReplicationAddr() }); err != nil {
		t.Fatal(err)
	}
	if got := dst.table.Get("k").Credit(time.Now()); math.Abs(got-3) > 1e-9 {
		t.Fatalf("merged credit = %v, want 3 (never refunded)", got)
	}
}

// TestRebalanceGeometryChangeInstallsWholesale: a destination bucket with
// different geometry (edited rule) is replaced by the incoming entry.
func TestRebalanceGeometryChangeInstallsWholesale(t *testing.T) {
	src := newHandoffServer(t, bucket.Rule{Key: "k", RefillRate: 5, Capacity: 20, Credit: 20})
	dst := newHandoffServer(t, bucket.Rule{Key: "k", RefillRate: 0, Capacity: 10, Credit: 10})
	src.Decide(wire.Request{Key: "k", Cost: 4})
	dst.Decide(wire.Request{Key: "k", Cost: 1})
	if _, err := src.Rebalance(func(string) string { return dst.ReplicationAddr() }); err != nil {
		t.Fatal(err)
	}
	b := dst.table.Get("k")
	if b.Capacity() != 20 || b.RefillRate() != 5 {
		t.Fatalf("geometry = (%v, %v), want (20, 5)", b.RefillRate(), b.Capacity())
	}
}

// TestRebalanceDefaultFlagTravels: default-rule keys keep their flag on the
// new owner, so checkpointing still skips them.
func TestRebalanceDefaultFlagTravels(t *testing.T) {
	src := newHandoffServer(t) // no rules: every key is served by the default rule
	dst := newHandoffServer(t)
	src.Decide(wire.Request{Key: "ghost", Cost: 1})
	if !defaultKey(src, "ghost") {
		t.Fatal("precondition: ghost not a default key")
	}
	if moved, err := src.Rebalance(func(string) string { return dst.ReplicationAddr() }); err != nil || moved != 1 {
		t.Fatalf("moved = %d err = %v", moved, err)
	}
	if !defaultKey(dst, "ghost") {
		t.Fatal("default flag lost in handoff")
	}
	if src.table.Get("ghost") != nil {
		t.Fatal("entry not removed from the source")
	}
}

// TestSyncAfterPeerInstall: rules that a handoff or an HA snapshot installs
// are as current as the sender's sync cursor. Here the receiver's cursor has
// already passed an edit and a purchase the sender never synced, so only the
// reset scan its next pass runs brings them in.
func TestSyncAfterPeerInstall(t *testing.T) {
	for _, tc := range []struct {
		name    string
		install func(from, to *Server) error
	}{
		{"handoff", func(from, to *Server) error {
			moved, err := from.Rebalance(func(string) string { return to.ReplicationAddr() })
			if err == nil && moved != 2 {
				err = fmt.Errorf("moved %d entries, want 2", moved)
			}
			return err
		}},
		{"ha snapshot", func(from, to *Server) error {
			// A following slave does not sync; the pass after Stop does.
			rep := NewReplicator(to, from.ReplicationAddr(), time.Hour)
			defer rep.Stop()
			return rep.PullOnce()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := newDB(t, bucket.Rule{Key: "edited", RefillRate: 0, Capacity: 10, Credit: 10})
			from, to := newPeer(t, db), newPeer(t, db)
			from.Decide(wire.Request{Key: "edited", Cost: 1})
			from.Decide(wire.Request{Key: "bought", Cost: 1}) // a default-rule key
			from.SyncOnce()
			to.SyncOnce()

			if err := db.PutAll([]bucket.Rule{
				{Key: "edited", RefillRate: 0, Capacity: 50, Credit: 50},
				{Key: "bought", RefillRate: 0, Capacity: 7, Credit: 7},
			}); err != nil {
				t.Fatal(err)
			}
			to.SyncOnce() // holds neither key: its cursor passes both edits
			if err := tc.install(from, to); err != nil {
				t.Fatal(err)
			}
			if b := to.table.Get("edited"); b == nil || b.Capacity() != 10 {
				t.Fatalf("precondition: the sender's stale rule was not installed: %v", b)
			}
			to.SyncOnce()
			if b := to.table.Get("edited"); b.Capacity() != 50 {
				t.Fatalf("edited rule still has capacity %v after the pass", b.Capacity())
			}
			if defaultKey(to, "bought") || to.table.Get("bought").Capacity() != 7 {
				t.Fatal("purchased key still on the default rule after the pass")
			}
			if _, r := syncCounters(to); r != 2 {
				t.Fatalf("%d reconciles, want 2 (first pass, peer install)", r)
			}
		})
	}
}

// TestRebalanceUnreachableDestinationKeepsEntries: when the destination is
// down, entries stay local and an error is reported.
func TestRebalanceUnreachableDestinationKeepsEntries(t *testing.T) {
	src := newHandoffServer(t, bucket.Rule{Key: "k", RefillRate: 0, Capacity: 10, Credit: 10})
	src.Decide(wire.Request{Key: "k", Cost: 1})
	moved, err := src.Rebalance(func(string) string { return "127.0.0.1:1" })
	if err == nil || moved != 0 {
		t.Fatalf("moved = %d err = %v, want error and 0", moved, err)
	}
	if src.TableLen() != 1 {
		t.Fatal("entry lost despite failed handoff")
	}
}

// TestSnapshotRoundTripUnderConcurrentWrites exercises the ha.go snapshot
// path (which Rebalance's export shares) while workers admit concurrently:
// replication pulls and handoff pushes must be race-free against live
// decisions. Run under -race (scripts/check via `go test -race`).
func TestSnapshotRoundTripUnderConcurrentWrites(t *testing.T) {
	var rules []bucket.Rule
	for i := 0; i < 64; i++ {
		rules = append(rules, bucket.Rule{Key: fmt.Sprintf("u%d", i), RefillRate: 1e6, Capacity: 1e6, Credit: 1e6})
	}
	master := newHandoffServer(t, rules...)
	slave := newHandoffServer(t, rules...)
	sink := newHandoffServer(t, rules...)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				master.Decide(wire.Request{Key: fmt.Sprintf("u%d", (g*16+i)%64), Cost: 1})
			}
		}(g)
	}

	// Replication pulls and partial handoffs race against the writers.
	rep := NewReplicator(slave, master.ReplicationAddr(), time.Millisecond)
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		if _, err := master.Rebalance(func(key string) string {
			if key == fmt.Sprintf("u%d", round) {
				return sink.ReplicationAddr()
			}
			return ""
		}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	rep.Stop()
	close(stop)
	wg.Wait()
	if rep.Pulls() < 2 {
		t.Fatalf("pulls = %d", rep.Pulls())
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("replication error: %v", err)
	}
	if slave.TableLen() == 0 {
		t.Fatal("slave table empty after round trips")
	}
	if sink.TableLen() != 5 {
		t.Fatalf("sink received %d handed-off keys, want 5", sink.TableLen())
	}
}
