package qosserver

import (
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/wire"
)

func TestHAReplicationWarmSlave(t *testing.T) {
	db := newDB(t,
		bucket.Rule{Key: "a", RefillRate: 0, Capacity: 10, Credit: 10},
		bucket.Rule{Key: "b", RefillRate: 0, Capacity: 5, Credit: 5},
	)
	master := newServer(t, Config{Store: db, ReplicationAddr: "127.0.0.1:0"})
	if master.ReplicationAddr() == "" {
		t.Fatal("no replication address")
	}
	// Master serves traffic, consuming credits.
	for i := 0; i < 4; i++ {
		master.Decide(wire.Request{Key: "a"})
	}
	master.Decide(wire.Request{Key: "unknown"}) // default key

	slave := newServer(t, Config{Store: db})
	rep := NewReplicator(slave, master.ReplicationAddr(), 10*time.Millisecond)
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	// After the synchronous first pull the slave holds the master's state:
	// the two keys the master has actually served ("a" and "unknown").
	if slave.TableLen() != 2 {
		t.Fatalf("slave table len = %d, want 2", slave.TableLen())
	}
	ba := slave.table.Get("a")
	if ba == nil || ba.Credit(time.Now()) != 6 {
		t.Fatalf("slave credit for a = %v, want 6", ba.Credit(time.Now()))
	}
	// Default flag replicated.
	resp := slave.Decide(wire.Request{Key: "unknown"})
	if resp.Status != wire.StatusDefaultRule {
		t.Fatalf("slave default status = %v", resp.Status)
	}
}

func TestHAContinuousPulls(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "a", RefillRate: 0, Capacity: 100, Credit: 100})
	master := newServer(t, Config{Store: db, ReplicationAddr: "127.0.0.1:0"})
	slave := newServer(t, Config{Store: db})
	rep := NewReplicator(slave, master.ReplicationAddr(), 5*time.Millisecond)
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	for i := 0; i < 30; i++ {
		master.Decide(wire.Request{Key: "a"})
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		b := slave.table.Get("a")
		if b != nil && b.Credit(time.Now()) == 70 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slave never converged (pulls=%d err=%v)", rep.Pulls(), rep.Err())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if rep.Pulls() < 2 {
		t.Fatalf("pulls = %d", rep.Pulls())
	}
}

func TestHAFailoverSlaveTakesOver(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "a", RefillRate: 0, Capacity: 10, Credit: 10})
	master := newServer(t, Config{Store: db, ReplicationAddr: "127.0.0.1:0"})
	for i := 0; i < 8; i++ {
		master.Decide(wire.Request{Key: "a"})
	}
	slave := newServer(t, Config{Store: db})
	rep := NewReplicator(slave, master.ReplicationAddr(), 5*time.Millisecond)
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	// Master dies; promotion = stop replication, serve from warm table.
	master.Close()
	rep.Stop()
	allowed := 0
	for i := 0; i < 10; i++ {
		if slave.Decide(wire.Request{Key: "a"}).Allow {
			allowed++
		}
	}
	if allowed != 2 {
		t.Fatalf("promoted slave admitted %d, want 2 (warm credit)", allowed)
	}
}

// TestFollowingSlaveDoesNotCheckpoint: master and slave share one store. A
// slave checkpoint landing after the master's would overwrite the master's
// fresher, lower credit with the slave's replicated one. After promotion the
// slave checkpoints its own credit.
func TestFollowingSlaveDoesNotCheckpoint(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "a", RefillRate: 0, Capacity: 10, Credit: 10})
	master := newServer(t, Config{Store: db, ReplicationAddr: "127.0.0.1:0"})
	slave := newServer(t, Config{Store: db})
	rep := NewReplicator(slave, master.ReplicationAddr(), time.Hour)
	defer rep.Stop()
	consume := func(s *Server, n int) {
		for i := 0; i < n; i++ {
			s.Decide(wire.Request{Key: "a"})
		}
	}
	checkpointed := func(s *Server, want float64) {
		t.Helper()
		s.CheckpointOnce()
		if r, _, err := db.Get("a"); err != nil || r.Credit != want {
			t.Fatalf("row credit = %v (err %v), want %v", r.Credit, err, want)
		}
	}

	consume(master, 3)
	if err := rep.PullOnce(); err != nil { // the slave holds 7
		t.Fatal(err)
	}
	consume(master, 2)
	checkpointed(master, 5)
	checkpointed(slave, 5) // not the slave's 7
	rep.Stop()             // promotion
	consume(slave, 1)
	checkpointed(slave, 6)
}

func TestReplicatorStartFailsWhenMasterDown(t *testing.T) {
	slave := newServer(t, Config{})
	rep := NewReplicator(slave, "127.0.0.1:1", time.Millisecond)
	if err := rep.Start(); err == nil {
		t.Fatal("Start succeeded with no master")
	}
	rep.Stop() // must not hang even though loop never started
}

func TestReplicatorRecordsPullErrors(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "a", RefillRate: 1, Capacity: 1, Credit: 1})
	master := newServer(t, Config{Store: db, ReplicationAddr: "127.0.0.1:0"})
	slave := newServer(t, Config{Store: db})
	rep := NewReplicator(slave, master.ReplicationAddr(), 2*time.Millisecond)
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	master.Close()
	deadline := time.Now().Add(2 * time.Second)
	for rep.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("pull errors not recorded after master death")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
