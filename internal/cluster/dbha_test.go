package cluster

import (
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/qosserver"
)

// TestDBHAFailover exercises the §III-D Multi-AZ shape end to end: the
// rules database fails over to its standby and the QoS layer keeps
// resolving rules for new keys through the promoted node.
func TestDBHAFailover(t *testing.T) {
	c := newCluster(t, Config{
		QoSServers: 1,
		DBHA:       true,
		HAInterval: 10 * time.Millisecond,
		Rules:      rules(4, 0, 2),
	})
	// Rule fetch works through the DNS executor against the master.
	if ok, err := c.Check("user-0"); err != nil || !ok {
		t.Fatalf("pre-failover: ok=%v err=%v", ok, err)
	}
	waitStandbyRules(t, c, 4)

	if err := c.failDB(); err != nil {
		t.Fatal(err)
	}

	// New keys resolve their rules from the promoted standby.
	if ok, err := c.Check("user-1"); err != nil || !ok {
		t.Fatalf("post-failover new key: ok=%v err=%v", ok, err)
	}
	// Writes (checkpoints) also land on the promoted node.
	c.QoS[0].Master.CheckpointOnce()
	r, found, err := c.Store.Get("user-1")
	if err != nil || !found {
		t.Fatalf("store read after failover: found=%v err=%v", found, err)
	}
	if r.Credit != 1 {
		t.Fatalf("checkpointed credit = %v, want 1", r.Credit)
	}
	// Rule management through the facade keeps working.
	if err := c.Store.Put(bucket.Rule{Key: "new-after-failover", RefillRate: 1, Capacity: 1, Credit: 1}); err != nil {
		t.Fatalf("rule write after failover: %v", err)
	}
}

// TestSyncAfterDBFailover: the promoted standby numbers its later writes
// under an origin of its own. Here it lacks the master's last edits
// (replication stopped first), so the sequence it carries on is behind the
// QoS server's cursor, and its first write takes a number the cursor has
// already passed. A full reconcile is the right answer: were the promoted
// standby to keep the master's origin, the next sync pass would read on from
// the cursor and skip the rule edited on it.
func TestSyncAfterDBFailover(t *testing.T) {
	c := newCluster(t, Config{
		QoSServers: 1,
		DBHA:       true,
		HAInterval: 10 * time.Millisecond,
		Rules:      rules(4, 0, 2),
	})
	q := c.QoS[0].Master
	if ok, err := c.Check("user-0"); err != nil || !ok {
		t.Fatalf("pre-failover: ok=%v err=%v", ok, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := c.DBStandbyEngine.Execute(`SELECT COUNT(*) FROM qos_rules`)
		if err == nil && res.Rows[0][0].AsInt() == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never caught up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.dbReplica.Stop()
	for i := 0; i < 10; i++ {
		if err := c.Store.Put(bucket.Rule{Key: "user-3", RefillRate: 0, Capacity: float64(3 + i), Credit: 1}); err != nil {
			t.Fatal(err)
		}
	}
	q.SyncOnce()
	if err := c.failDB(); err != nil {
		t.Fatal(err)
	}
	if err := c.Store.Put(bucket.Rule{Key: "user-0", RefillRate: 0, Capacity: 50, Credit: 50}); err != nil {
		t.Fatalf("rule edit after failover: %v", err)
	}
	q.SyncOnce()
	if got := capacityOf(q, "user-0"); got != 50 {
		t.Fatalf("edit on the promoted standby not applied: capacity %v", got)
	}
	if n := q.Registry().Counter("janus_qos_sync_reconciles_total", "").Value(); n != 2 {
		t.Fatalf("%d reconciles, want 2 (first pass, new origin)", n)
	}
}

// TestSyncAfterCaughtUpDBFailover: a standby that had applied the master's
// sequence past the QoS server's cursor carries that sequence on when
// promoted, so the first sync pass after the failover reads one page of
// changes from the cursor instead of re-reading the rules table.
func TestSyncAfterCaughtUpDBFailover(t *testing.T) {
	c := newCluster(t, Config{
		QoSServers: 1,
		DBHA:       true,
		HAInterval: 10 * time.Millisecond,
		Rules:      rules(4, 0, 2),
	})
	q := c.QoS[0].Master
	if ok, err := c.Check("user-0"); err != nil || !ok {
		t.Fatalf("pre-failover: ok=%v err=%v", ok, err)
	}
	q.SyncOnce()
	head := c.DBEngine.Snapshot().At.Seq
	deadline := time.Now().Add(5 * time.Second)
	for c.dbReplica.Applied() < head {
		if time.Now().After(deadline) {
			t.Fatalf("standby at %d never reached the master's head %d: %v", c.dbReplica.Applied(), head, c.dbReplica.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.failDB(); err != nil {
		t.Fatal(err)
	}
	if err := c.Store.Put(bucket.Rule{Key: "user-0", RefillRate: 0, Capacity: 50, Credit: 50}); err != nil {
		t.Fatalf("rule edit after failover: %v", err)
	}
	reconciles := q.Registry().Counter("janus_qos_sync_reconciles_total", "")
	queries := q.Registry().Counter("janus_qos_sync_queries_total", "")
	r0, q0 := reconciles.Value(), queries.Value()
	q.SyncOnce()
	if got := capacityOf(q, "user-0"); got != 50 {
		t.Fatalf("edit on the promoted standby not applied: capacity %v", got)
	}
	if r, n := reconciles.Value()-r0, queries.Value()-q0; r != 0 || n != 1 {
		t.Fatalf("sync after a caught-up failover: %d reconciles, %d pages; want 0 and 1", r, n)
	}
}

func TestFailDBWithoutHA(t *testing.T) {
	c := newCluster(t, Config{})
	if err := c.failDB(); err == nil {
		t.Fatal("failDB without DBHA succeeded")
	}
}

// TestDBHAHealthLoopFlipsAutomatically verifies the background health check
// (not just CheckNow) performs the failover.
func TestDBHAHealthLoopFlipsAutomatically(t *testing.T) {
	c := newCluster(t, Config{
		DBHA:       true,
		HAInterval: 10 * time.Millisecond,
		Rules:      rules(1, 0, 100),
	})
	// The standby replicates asynchronously: a master killed before it
	// applied the seeded rule would lose it, which is not what this test
	// is about.
	waitStandbyRules(t, c, 1)
	standbyAddr := c.DBStandbyServer.Addr()
	c.DBServer.Close() // master dies; no explicit CheckNow
	c.dbReplica.Promote()
	c.DBStandbyServer.SetReadOnly(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		addrs, _, err := c.DNS.Query(DBName)
		if err == nil && len(addrs) == 1 && addrs[0] == standbyAddr {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("DNS never flipped to standby: %v %v", addrs, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ok, err := c.Check("user-0"); err != nil || !ok {
		t.Fatalf("check after automatic failover: ok=%v err=%v", ok, err)
	}
}

// waitStandbyRules waits until the database standby holds n rules.
func waitStandbyRules(t *testing.T, c *Cluster, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := c.DBStandbyEngine.Execute(`SELECT COUNT(*) FROM qos_rules`)
		if err == nil && res.Rows[0][0].AsInt() == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never caught up to %d rules: %v", n, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// capacityOf returns the capacity of key's bucket on q, or -1 when key is
// not resident there.
func capacityOf(q *qosserver.Server, key string) float64 {
	for _, b := range q.SnapshotBuckets(0) {
		if b.Key == key {
			return b.Capacity
		}
	}
	return -1
}
