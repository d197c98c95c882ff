package qosserver

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/minisql"
	"repro/internal/store"
	"repro/internal/tick"
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
	ba := slave.adm.Get("a")
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
		b := slave.adm.Get("a")
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
		s.checkpointOnce()
		if r, _, err := db.Get("a"); err != nil || r.Credit != want {
			t.Fatalf("row credit = %v (err %v), want %v", r.Credit, err, want)
		}
	}

	consume(master, 3)
	if err := rep.pullOnce(); err != nil { // the slave holds 7
		t.Fatal(err)
	}
	consume(master, 2)
	checkpointed(master, 5)
	checkpointed(slave, 5) // not the slave's 7
	rep.Stop()             // promotion
	consume(slave, 1)
	checkpointed(slave, 6)
}

// TestFollowingSlaveDoesNotSync: a following slave's table is the master's
// at the last pull, so its sync passes read nothing, and they still count as
// passes for the readiness probe. The first pass after Stop scans the rules
// table once; the pass after it reads on from there.
func TestFollowingSlaveDoesNotSync(t *testing.T) {
	engine := minisql.NewEngine()
	db := store.New(engine)
	if err := db.Init(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Put(bucket.Rule{Key: fmt.Sprintf("k%d", i), RefillRate: 1, Capacity: 10, Credit: 10}); err != nil {
			t.Fatal(err)
		}
	}
	master := newServer(t, Config{Store: db, ReplicationAddr: "127.0.0.1:0"})
	if err := master.Preload(); err != nil {
		t.Fatal(err)
	}
	counted := &countingExecutor{Executor: engine}
	slave := newServer(t, Config{Store: store.New(counted), SyncInterval: time.Hour})
	rep := NewReplicator(slave, master.ReplicationAddr(), time.Hour)
	defer rep.Stop()
	if err := rep.pullOnce(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	for i := 0; i < 3; i++ {
		slave.SyncOnce()
	}
	if n := counted.n.Load(); n != 0 {
		t.Fatalf("a following slave's sync passes sent %d statements, want 0", n)
	}
	if age, _ := slave.SyncAge(); age >= 10*time.Millisecond {
		t.Fatalf("sync age %v after a pass while following", age)
	}
	rep.Stop()
	slave.SyncOnce()
	if _, r := syncCounters(slave); r != 1 || slave.TableLen() != 10 {
		t.Fatalf("first pass after Stop: %d reset scans, %d keys; want 1 and 10", r, slave.TableLen())
	}
	slave.SyncOnce()
	if _, r := syncCounters(slave); r != 1 {
		t.Fatalf("second pass after Stop: %d reset scans in all, want 1", r)
	}
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

// silentPeer accepts connections and never answers, holding each open until
// the test ends.
func silentPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
		for _, c := range conns {
			_ = c.Close()
		}
	})
	return ln.Addr().String()
}

// within fails the test unless fn returns within d.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	returned := make(chan struct{})
	go func() { fn(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
	}
}

// TestPeerExchangesTimeOutOnASilentPeer: a peer that accepts and never
// answers fails a pull and a handoff within the exchange deadline, and a
// replicator stuck on such a pull still stops.
func TestPeerExchangesTimeOutOnASilentPeer(t *testing.T) {
	addr := silentPeer(t)
	t.Run("pull", func(t *testing.T) {
		t.Parallel()
		rep := NewReplicator(newServer(t, Config{}), addr, time.Hour)
		within(t, 3*time.Second, "pullOnce", func() {
			if err := rep.pullOnce(); err == nil {
				t.Error("pull from a silent peer succeeded")
			}
		})
	})
	t.Run("handoff", func(t *testing.T) {
		t.Parallel()
		owner := newServer(t, Config{})
		owner.Decide(wire.Request{Key: "k"})
		within(t, 3*time.Second, "Rebalance", func() {
			if moved, err := owner.Rebalance(func(string) string { return addr }); err == nil || moved != 0 {
				t.Errorf("handoff to a silent peer: moved %d, err %v", moved, err)
			}
		})
		if owner.TableLen() != 1 {
			t.Errorf("an unacknowledged handoff removed the key: table len %d", owner.TableLen())
		}
	})
	t.Run("stop", func(t *testing.T) {
		t.Parallel()
		rep := NewReplicator(newServer(t, Config{}), addr, time.Millisecond)
		rep.loop = tick.Every(rep.interval, rep.pull)
		time.Sleep(50 * time.Millisecond) // the loop is inside a pull
		within(t, 3*time.Second, "Replicator.Stop", rep.Stop)
	})
}

// TestSnapshotReplacesTheSlavesTable: a key the master no longer holds
// leaves the slave at the next pull, with its audit account.
func TestSnapshotReplacesTheSlavesTable(t *testing.T) {
	master := newServer(t, Config{ReplicationAddr: "127.0.0.1:0", Audit: true})
	for i := 0; i < 100; i++ {
		master.Decide(wire.Request{Key: fmt.Sprintf("k%d", i)})
	}
	slave := newServer(t, Config{Audit: true})
	rep := NewReplicator(slave, master.ReplicationAddr(), time.Hour)
	defer rep.Stop()
	if err := rep.pullOnce(); err != nil {
		t.Fatal(err)
	}
	if n := slave.TableLen(); n != 100 {
		t.Fatalf("slave holds %d keys after the first pull, want 100", n)
	}
	for i := 0; i < 100; i++ {
		master.adm.Delete(fmt.Sprintf("k%d", i))
	}
	if err := rep.pullOnce(); err != nil {
		t.Fatal(err)
	}
	if n := slave.TableLen(); n != 0 {
		t.Errorf("slave holds %d keys the master dropped", n)
	}
	if n := gauge(t, slave, "janus_qos_audit_buckets"); n != 0 {
		t.Errorf("janus_qos_audit_buckets = %v on the slave, want 0", n)
	}
}
