package chaostest

// Invariant 6 — CoDel degraded replies never inflate admission: under
// sustained overload the QoS server's queue controller (DESIGN.md §13)
// answers shed requests with StatusDegraded instead of deciding them. A
// degraded reply consumes no credit and carries the fail-closed default
// verdict, so no interleaving of overload, receive loss, and shedding may
// push aggregate admissions past the K·C + K·r·t conservation bound — the
// controller changes WHO waits, never HOW MUCH is admitted. The server's
// own audit ledger runs alongside as a second, per-bucket oracle.
//
// The cluster harness has no CoDel knobs (janusd wires them from flags),
// so this invariant builds the QoS server directly and speaks raw wire
// datagrams, with the service rate pinned by the worker/decide failpoint
// exactly as in the qosserver overload suite.

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/failpoint"
	"repro/internal/minisql"
	"repro/internal/qosserver"
	"repro/internal/store"
	"repro/internal/wire"
)

func TestInvariantCodelNeverInflatesAdmission(t *testing.T) {
	const (
		numKeys  = 8
		capacity = 10.0
		rate     = 50.0 // per key per second
	)
	rules := make([]bucket.Rule, numKeys)
	for i := range rules {
		rules[i] = bucket.Rule{Key: fmt.Sprintf("codel-k%d", i), RefillRate: rate, Capacity: capacity, Credit: capacity}
	}
	db := store.New(minisql.NewEngine())
	if err := db.Init(); err != nil {
		t.Fatal(err)
	}
	if err := db.PutAll(rules); err != nil {
		t.Fatal(err)
	}
	s, err := qosserver.New(qosserver.Config{
		Addr: "127.0.0.1:0", Store: db,
		Workers: 1, QueueSize: 8192,
		CodelTarget: 20 * time.Millisecond, CodelInterval: 10 * time.Millisecond,
		Audit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	t.Cleanup(failpoint.DisarmAll)

	// Service pinned to ~1ms per full decision; 20% seeded receive loss in
	// the cocktail so retransmission-shaped traffic mixes with shedding.
	for _, arm := range []struct {
		site string
		act  failpoint.Action
	}{
		{"qosserver/worker/decide", failpoint.Action{Kind: failpoint.Delay, Delay: time.Millisecond}},
		{"qosserver/udp/recv", failpoint.Action{Kind: failpoint.Drop, P: 0.2, Seed: chaosSeed}},
	} {
		if err := failpoint.Arm(arm.site, arm.act); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()

	// Blast ~4x the governed capacity from 4 sockets; every reader tallies
	// degraded replies and would catch a degraded grant (Allow=true with
	// fail-closed config) — the direct "minted credit" smoking gun.
	var stop atomic.Bool
	var degraded, degradedAllowed int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("udp", s.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			go func() {
				buf := make([]byte, wire.MaxDatagram)
				for {
					n, err := conn.Read(buf)
					if err != nil {
						return
					}
					r, err := wire.DecodeResponse(buf[:n])
					if err != nil {
						continue
					}
					if r.Status == wire.StatusDegraded {
						atomic.AddInt64(&degraded, 1)
						if r.Allow {
							atomic.AddInt64(&degradedAllowed, 1)
						}
					}
				}
			}()
			var id uint64
			for i := g; !stop.Load(); i++ {
				id++
				pkt, err := wire.AppendRequest(nil, wire.Request{ID: id, Key: rules[i%numKeys].Key, Cost: 1})
				if err != nil {
					return
				}
				conn.Write(pkt)
				time.Sleep(time.Millisecond) // ~1000/s per socket, 4x total
			}
		}(g)
	}
	time.Sleep(loadDuration(1200 * time.Millisecond))
	stop.Store(true)
	wg.Wait()
	time.Sleep(50 * time.Millisecond) // let in-flight replies land

	for _, site := range []string{"qosserver/worker/decide", "qosserver/udp/recv"} {
		fp := failpoint.Lookup(site)
		if fp == nil || fp.Hits() == 0 {
			t.Fatalf("failpoint %s never fired — the fault was not engaged", site)
		}
	}

	st := s.Stats()
	if st.Degraded == 0 {
		t.Fatal("CoDel never shed under 4x overload — invariant not exercised")
	}
	if atomic.LoadInt64(&degradedAllowed) != 0 {
		t.Errorf("%d degraded replies carried Allow=true under fail-closed config",
			atomic.LoadInt64(&degradedAllowed))
	}
	if st.Dropped != 0 {
		t.Errorf("FIFO-full drops = %d with CoDel active, want 0", st.Dropped)
	}

	elapsed := time.Since(start)
	bound := numKeys*capacity + numKeys*rate*elapsed.Seconds()
	if float64(st.Allowed) > bound {
		t.Errorf("admissions %d exceed C+r·t bound %.1f over %v — shedding minted credit",
			st.Allowed, bound, elapsed)
	}
	if rep := s.AuditReport(); rep.Verdict != "ok" {
		t.Errorf("audit verdict %q: %+v", rep.Verdict, rep.Overspent)
	}

	// Liveness floor: shedding must not have starved real admission.
	if float64(st.Allowed) < numKeys*capacity/2 {
		t.Errorf("admissions %d < %.0f — server wedged under overload", st.Allowed, numKeys*capacity/2)
	}
}
