package chaostest

// Invariant 4 — single owner per epoch: the coordinator's epoch-versioned
// views are the routing ground truth, and a router that cannot reach the
// coordinator keeps serving its last epoch rather than inventing one. Two
// live routers may lag each other across epochs during a partition, but
// within any one epoch they must agree on the full backend list — and
// therefore on the unique owner of every key. Two owners for one key in the
// same epoch would double-admit the key's budget.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/membership"
)

// viewObs is one /debug/membership sample (fields match membership.View's
// default JSON).
type viewObs struct {
	Epoch    uint64
	Backends []string
}

func TestInvariantSingleOwnerPerEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos test skipped in -short mode")
	}

	coordAddr := freePort(t)
	startDaemon(t, "janus-coordinator", "-addr", coordAddr, "-ttl", "600ms")
	waitTCP(t, coordAddr)
	coord := &membership.Client{Endpoint: coordAddr}

	// Two QoS servers join and keep beating.
	startQoS := func() (*daemon, string) {
		addr := freePort(t)
		d := startDaemon(t, "janusd",
			"-addr", addr, "-repl", freePort(t),
			"-sync", "0", "-checkpoint", "0",
			"-coordinator", coordAddr, "-beat", "100ms")
		return d, addr
	}
	startQoS()
	qos2, _ := startQoS()
	waitMembers := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			v, err := coord.FetchView()
			if err == nil && len(v.Backends) == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("coordinator never reached %d members (view %+v, err %v)", n, v, err)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	waitMembers(2)

	// Two routers following the coordinator.
	startRouter := func() string {
		debug := freePort(t)
		startDaemon(t, "janus-router",
			"-addr", freePort(t), "-coordinator", coordAddr,
			"-poll", "50ms",
			"-metrics-addr", debug)
		waitTCP(t, debug)
		return debug
	}
	debugA := startRouter()
	debugB := startRouter()
	// On failure, dump both routers' flight recorders: the epoch-swap event
	// order is exactly the evidence a single-owner violation needs.
	attachFlightRecorder(t, debugA, debugB)
	routerView := func(debug string) viewObs {
		t.Helper()
		var v viewObs
		if err := getJSON(debug, "/debug/membership", &v); err != nil {
			t.Fatalf("router %s view: %v", debug, err)
		}
		return v
	}
	waitRouterBackends := func(debug string, n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if len(routerView(debug).Backends) == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("router %s never saw %d backends", debug, n)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	waitRouterBackends(debugA, 2)
	waitRouterBackends(debugB, 2)

	// Partition router B from the coordinator: its polls fail, freezing it
	// on its current epoch while the cluster keeps changing.
	fpB := &failpoint.Client{Endpoint: debugB}
	if err := fpB.Arm("membership/view/fetch", "error(coordinator partitioned)"); err != nil {
		t.Fatalf("arm: %v", err)
	}
	defer fpB.DisarmAll()
	frozen := routerView(debugB).Epoch

	// Churn the membership during the partition: one join, then one
	// TTL ejection mid-sampling.
	startQoS()
	waitRouterBackends(debugA, 3)

	var obs []viewObs
	sampleFor := loadDuration(1500 * time.Millisecond)
	killAt := time.Now().Add(sampleFor / 3)
	end := time.Now().Add(sampleFor)
	killed := false
	for time.Now().Before(end) {
		obs = append(obs, routerView(debugA), routerView(debugB))
		if !killed && time.Now().After(killAt) {
			qos2.stop() // TTL ejection advances the epoch again
			killed = true
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Within one epoch every observation — from either router — must carry
	// the identical backend list.
	byEpoch := make(map[uint64]string)
	for _, o := range obs {
		fp := strings.Join(o.Backends, ",")
		if prev, ok := byEpoch[o.Epoch]; ok && prev != fp {
			t.Fatalf("epoch %d observed with two backend lists: %q vs %q", o.Epoch, prev, fp)
		} else if !ok {
			byEpoch[o.Epoch] = fp
		}
	}
	if len(byEpoch) < 2 {
		t.Fatalf("sampling saw only %d epoch(s) — churn did not engage", len(byEpoch))
	}

	// And therefore a unique owner per key per epoch, under the routers'
	// mapping.
	sampleKeys := make([]string, 50)
	for i := range sampleKeys {
		sampleKeys[i] = "tenant-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	for epoch, joined := range byEpoch {
		v := membership.View{Epoch: epoch, Backends: strings.Split(joined, ",")}
		for _, key := range sampleKeys {
			o1, err1 := v.Owner(key)
			o2, err2 := v.Owner(key)
			if err1 != nil || err2 != nil || o1 != o2 {
				t.Fatalf("epoch %d key %q: owner not unique (%q/%v vs %q/%v)", epoch, key, o1, err1, o2, err2)
			}
		}
	}

	// The partitioned router stayed frozen while the healthy one advanced.
	var maxA, maxB uint64
	for i, o := range obs {
		if i%2 == 0 && o.Epoch > maxA {
			maxA = o.Epoch
		}
		if i%2 == 1 && o.Epoch > maxB {
			maxB = o.Epoch
		}
	}
	if maxB != frozen {
		t.Errorf("partitioned router moved from epoch %d to %d without a coordinator", frozen, maxB)
	}
	if maxA <= frozen {
		t.Errorf("healthy router never advanced past the partition epoch %d (max %d)", frozen, maxA)
	}

	// Heal the partition: B must converge to A's epoch.
	if err := fpB.DisarmAll(); err != nil {
		t.Fatalf("disarm: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		a, b := routerView(debugA).Epoch, routerView(debugB).Epoch
		if b >= a && b > frozen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router B never converged after heal: A at epoch %d, B at %d", a, b)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
