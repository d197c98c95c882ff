package chaostest

// Invariant 2 — promotion preserves credit: when the master dies and the
// slave is promoted (SIGUSR1), the promoted node serves the bucket credit
// it had at its last applied replication snapshot. Consumption inside the
// replication window since that snapshot may be forgotten — the paper
// accepts that bounded regression (§III-C) — but promotion must never
// *mint* credit beyond it: total admissions across both incarnations stay
// within capacity + the window's consumption.

import (
	"syscall"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/minisql"
	"repro/internal/proctest"
	"repro/internal/store"
)

func TestInvariantPromotionPreservesCredit(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos test skipped in -short mode")
	}

	dbAddr := startDaemon(t, "janus-dbd", "-addr", proctest.AnyPort).Addr(t, "master")
	pool := minisql.NewPool(dbAddr, 2)
	defer pool.Close()
	st := store.New(pool)
	if err := st.Init(); err != nil {
		t.Fatal(err)
	}
	// No refill: the credit ledger is exact, so admissions count precisely.
	if err := st.PutAll([]bucket.Rule{
		{Key: "tenant-a", RefillRate: 0, Capacity: 10, Credit: 10},
	}); err != nil {
		t.Fatal(err)
	}

	// Master with a replication listener; the slave follows it. The slave
	// has no database on purpose — after promotion it must serve from the
	// replicated warm table alone.
	master := startDaemon(t, "janusd",
		"-addr", proctest.AnyPort, "-db", dbAddr,
		"-sync", "0", "-checkpoint", "0",
		"-repl", proctest.AnyPort)
	masterAddr, replAddr := master.Addr(t, "QoS server"), master.Addr(t, "HA replication")
	slave := startDaemon(t, "janusd",
		"-addr", proctest.AnyPort,
		"-sync", "0", "-checkpoint", "0",
		"-follow", replAddr, "-follow-interval", "20ms",
		"-metrics-addr", proctest.AnyPort)
	slaveAddr, slaveDebug := slave.Addr(t, "QoS server"), slave.Addr(t, "metrics/debug")

	// Consume 4 of tenant-a's 10 credits on the master (retry the first
	// check until the UDP stack is warm).
	mcl := dialUDP(t, masterAddr)
	warm := time.Now().Add(10 * time.Second)
	for {
		if ok, err := mcl.check("tenant-a"); err == nil && ok {
			break
		}
		if time.Now().After(warm) {
			t.Fatal("master never admitted tenant-a")
		}
		time.Sleep(50 * time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		if !mcl.mustCheck(t, "tenant-a") {
			t.Fatalf("consume %d: master denied with credit to spare", i+2)
		}
	}

	// Wait for the slave's replicated view to show credit 6.
	deadline := time.Now().Add(10 * time.Second)
	for {
		credit, ok, err := bucketCredit(slaveDebug, "tenant-a")
		if err == nil && ok && credit == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slave never converged to credit 6: credit=%v present=%v err=%v", credit, ok, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Freeze replication: snapshots still arrive but are never applied, so
	// the slave's table is pinned at credit 6. Then consume 2 more on the
	// master inside this now-lost window.
	fpc := fpClient{slaveDebug}
	if err := fpc.Arm("qosserver/ha/apply-snapshot", "drop"); err != nil {
		t.Fatalf("arm: %v", err)
	}
	defer fpc.DisarmAll()
	for i := 0; i < 2; i++ {
		if !mcl.mustCheck(t, "tenant-a") {
			t.Fatalf("window consume %d: master denied with credit to spare", i+1)
		}
	}

	// Kill the master, promote the slave, lift the fault.
	master.Stop()
	if err := slave.Cmd.Process.Signal(syscall.SIGUSR1); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := fpc.DisarmAll(); err != nil {
		t.Fatalf("disarm: %v", err)
	}

	// The promoted node must admit exactly the 6 credits of its last
	// applied snapshot: the 2 window consumptions are forgotten (allowed),
	// but nothing beyond snapshot credit is minted. Total admissions across
	// both incarnations: 6 (master) + 6 (slave) = 12 ≤ capacity 10 +
	// window consumption 2.
	scl := dialUDP(t, slaveAddr)
	admitted := 0
	for i := 0; i < 20; i++ {
		if scl.mustCheck(t, "tenant-a") {
			admitted++
		}
	}
	if admitted != 6 {
		t.Fatalf("promoted slave admitted %d of 20, want exactly the snapshot credit 6", admitted)
	}
}
