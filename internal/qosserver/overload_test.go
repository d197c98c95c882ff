package qosserver

import (
	"net"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/failpoint"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestFIFOOverflowDropsAndRetriesRecover floods a server configured with a
// tiny FIFO and a single slow-ish worker path: some datagrams must be
// dropped at the queue (counted, not fatal), and a client using the paper's
// retry discipline still completes its requests.
func TestFIFOOverflowDropsAndRetriesRecover(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "k", RefillRate: 1e9, Capacity: 1e9, Credit: 1e9})
	s := newServer(t, Config{Store: db, Workers: 1, QueueSize: 1})

	// Blast raw datagrams to overwhelm the 1-deep FIFO.
	conn, err := net.Dial("udp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pkt, _ := wire.AppendRequest(nil, wire.Request{ID: 1, Key: "k", Cost: 1})
	for i := 0; i < 5000; i++ {
		conn.Write(pkt)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Dropped == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no drops under flood: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// A retrying client still gets every answer.
	c, err := transport.Dial(s.Addr(), transport.Config{Timeout: 50 * time.Millisecond, Retries: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		resp, err := c.Do(wire.Request{Key: "k", Cost: 1})
		if err != nil || !resp.Allow {
			t.Fatalf("request %d after flood: %+v %v", i, resp, err)
		}
	}
}

// TestWorkerCountHonoured verifies the configured worker pool drains the
// FIFO concurrently (throughput sanity with many workers vs one).
func TestWorkerCountHonoured(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "k", RefillRate: 1e9, Capacity: 1e9, Credit: 1e9})
	s := newServer(t, Config{Store: db, Workers: 8})
	c, err := transport.Dial(s.Addr(), clientCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			c.Do(wire.Request{Key: "k", Cost: 1})
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker pool wedged")
	}
	if s.Stats().Decisions < 450 {
		t.Fatalf("decisions = %d", s.Stats().Decisions)
	}
}

// TestIdenticalRetriesDoubleCharge documents the at-most-N-times semantics
// the paper accepts: a retransmitted request whose first response was lost
// consumes a second credit. The invariant that matters is that admissions
// never exceed capacity.
func TestIdenticalRetriesDoubleCharge(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "k", RefillRate: 0, Capacity: 100, Credit: 100})
	s := newServer(t, Config{Store: db})
	// Duplicate every datagram manually: same ID sent twice.
	conn, err := net.Dial("udp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 80; i++ {
		pkt, _ := wire.AppendRequest(nil, wire.Request{ID: uint64(i), Key: "k", Cost: 1})
		conn.Write(pkt)
		conn.Write(pkt) // retransmission
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Decisions < 160 {
		if time.Now().After(deadline) {
			t.Fatalf("decisions = %d", s.Stats().Decisions)
		}
		time.Sleep(time.Millisecond)
	}
	st := s.Stats()
	if st.Allowed > 100 {
		t.Fatalf("allowed %d exceeds capacity 100", st.Allowed)
	}
	if st.Allowed != 100 || st.Denied != 60 {
		t.Fatalf("allowed/denied = %d/%d, want 100/60 (each duplicate charged)", st.Allowed, st.Denied)
	}
}

// ---------------------------------------------------------------------------
// Overload scenario suite (DESIGN.md §13).
//
// Each scenario drives a real server over real UDP with the service rate
// pinned by the qosserver/worker/decide failpoint: a Delay action stalls
// every full decision path by a known amount, so "capacity" is exact and
// overload factors (2x, 10x) are real multipliers rather than guesses about
// how fast the host happens to be. The CoDel degraded path deliberately
// bypasses the failpoint — shedding must be cheaper than serving for the
// controller to have any leverage, in the tests exactly as in production.
//
// The suite pins the three CoDel promises:
//   - overload is answered, not dropped: Stats.Degraded rises, clients see
//     StatusDegraded replies, and Stats.Dropped (FIFO-full loss) stays 0 —
//     with sojourn-target shedding the FIFO never comes close to full;
//   - the standing queue is bounded: steady-state p99 queue sojourn stays
//     within 2x the configured Target instead of growing with the backlog;
//   - degraded replies never mint credit: admission stays within the
//     C + r*t conservation budget, checked by the audit ledger oracle.

// respTally counts response statuses read off a raw client socket.
type respTally struct {
	ok, defaultRule, degraded, other atomic.Int64
}

func (tl *respTally) total() int64 {
	return tl.ok.Load() + tl.defaultRule.Load() + tl.degraded.Load() + tl.other.Load()
}

// startTally drains conn on a goroutine, tallying every response by status,
// until the socket is closed.
func startTally(conn net.Conn) *respTally {
	tl := &respTally{}
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
			switch r.Status {
			case wire.StatusOK:
				tl.ok.Add(1)
			case wire.StatusDefaultRule:
				tl.defaultRule.Add(1)
			case wire.StatusDegraded:
				tl.degraded.Add(1)
			default:
				tl.other.Add(1)
			}
		}
	}()
	return tl
}

// pace sends requests for key at roughly rate/sec for duration d (bursts on
// a 10ms tick), returning the number sent. Deliberately NO catch-up after a
// scheduler stall: replaying missed ticks as one large burst manufactures a
// transient standing queue the scenario didn't mean to offer, which both
// trips CoDel in "healthy load" phases and poisons sojourn tails. Sleep
// overshoot can therefore only lower the achieved rate — scenarios that need
// a real multiplier must either pick nominal rates comfortably above the
// threshold or check the returned count.
func pace(tb testing.TB, conn net.Conn, key string, rate int, d time.Duration) int {
	tb.Helper()
	const tick = 10 * time.Millisecond
	burst := rate / 100
	if burst < 1 {
		burst = 1
	}
	sent := 0
	var id uint64
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		for i := 0; i < burst; i++ {
			id++
			pkt, err := wire.AppendRequest(nil, wire.Request{ID: id, Key: key, Cost: 1})
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := conn.Write(pkt); err != nil {
				tb.Fatal(err)
			}
			sent++
		}
		time.Sleep(tick)
	}
	return sent
}

// governService pins the full decision path to cost d per datagram and
// registers cleanup.
func governService(t *testing.T, d time.Duration) {
	t.Helper()
	if err := failpoint.Arm(fpWorkerDecide.Name(), failpoint.Action{Kind: failpoint.Delay, Delay: d}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = failpoint.Disarm(fpWorkerDecide.Name()) })
}

// waitIntakeIdle polls until the intake FIFO is empty.
func waitIntakeIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for s.SnapshotIntake().FIFODepth != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("intake FIFO never drained: %+v", s.SnapshotIntake())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// codelRecovered reports whether the controller has left the dropping state.
func codelRecovered(s *Server) bool { return s.SnapshotIntake().CodelState != "dropping" }

// measureCapacity measures the governed full-path capacity in frames/sec by
// serial ping-pong on its own socket: each probe waits for its reply, so the
// figure includes every real per-frame cost — syscalls, decode, the governed
// delay with its scheduler overshoot, race-detector instrumentation — rather
// than assuming the failpoint's nominal delay. Serial probing keeps the queue
// depth at ≤ 1, so calibration itself never trips the controller. Scenarios
// that assert a bound tied to an overload *multiplier* must offer a multiple
// of this figure, not of the nominal capacity.
func measureCapacity(t *testing.T, addr string) int {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, wire.MaxDatagram)
	const probes = 50
	rtts := make([]time.Duration, 0, probes)
	for i := 0; i < probes; i++ {
		pkt, err := wire.AppendRequest(nil, wire.Request{ID: uint64(i + 1), Key: "capacity-probe", Cost: 1})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(buf); err != nil {
			t.Fatalf("capacity probe %d: %v", i, err)
		}
		rtts = append(rtts, time.Since(start))
	}
	// The median per-probe RTT, not probes/total: a single scheduler stall
	// landing on one probe would otherwise halve the measured capacity and
	// turn the scenario's "2x" into less than 1x of the true figure.
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	capacity := int(time.Second / rtts[probes/2])
	if capacity < 100 {
		t.Fatalf("measured capacity %d frames/s is too low to drive an overload scenario", capacity)
	}
	return capacity
}

// TestOverloadSustained2x holds the server at ~2x its governed capacity and
// checks the three CoDel promises under sustained overload. The sojourn
// bound is asserted over the steady-state window (the histogram is reset
// after a convergence phase): CoDel's guarantee is about the controlled
// standing queue, not the transient while the control law ramps up.
func TestOverloadSustained2x(t *testing.T) {
	// Target is sized well above both the governed per-frame cost (so the
	// controlled standing queue is many frames deep and quantization noise
	// vanishes) and this runner's scheduler-stall scale (tens of ms): the
	// assertion below is about the bound CoDel holds, and the slack has to
	// absorb what the box does to *any* latency measurement, controller or
	// not.
	const (
		target   = 100 * time.Millisecond
		interval = 10 * time.Millisecond
		svc      = time.Millisecond
	)
	db := newDB(t, bucket.Rule{Key: "tenant", RefillRate: 100, Capacity: 200, Credit: 200})
	s := newServer(t, Config{
		Store: db, Workers: 1, QueueSize: 8192,
		CodelTarget: target, CodelInterval: interval, Audit: true,
	})
	governService(t, svc)
	conn, err := net.Dial("udp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tl := startTally(conn)
	start := time.Now()

	// The timing half of the scenario (offered rate and the sojourn tail)
	// shares one CPU with the server under test, so a scheduler stall in the
	// wrong 10ms can miscalibrate capacity, under-deliver the offered load,
	// or park a 100ms-plus spike in a 9-sample p99 tail — none of which says
	// anything about the controller. Those two checks get up to three
	// attempts, each a full converge→reset→measure cycle; a controller that
	// actually fails the bound (the seed's drop-when-full queue is seconds
	// deep at 2x) fails every attempt deterministically. The correctness
	// invariants below the loop — nothing lost, nothing minted, ledger ok —
	// are asserted unconditionally over ALL attempts.
	//
	// Per attempt, "2x" must mean 2x: the nominal svc delay is only a lower
	// bound on the real per-frame cost (sleep overshoot, race
	// instrumentation), so a fixed offered rate would silently turn this
	// into a 4-6x scenario on slow builds, and the sojourn bound —
	// calibrated to a *controlled* 2x standing queue — would stop
	// describing the test being run.
	//
	// Under race instrumentation the stalls are larger and p99-tail
	// pollution is routine, so the instrumented run gets an extra Target of
	// jitter room; the 2x-Target contract itself is pinned uninstrumented.
	bound := 2 * target
	if raceEnabled {
		bound = 3 * target
	}
	timingOK := false
	for attempt := 1; attempt <= 3 && !timingOK; attempt++ {
		capacity := measureCapacity(t, s.Addr())
		rate := 2 * capacity
		pace(t, conn, "tenant", rate, time.Second) // converge
		s.sojournQueue.Reset()
		degradedBefore := s.Stats().Degraded
		sent := pace(t, conn, "tenant", rate, 1500*time.Millisecond) // measure
		waitIntakeIdle(t, s)

		// At a converged 2x, roughly half of everything offered in the
		// 1.5s measure phase is shed; capacity/2 is a ~4x-margin floor.
		degrades := s.Stats().Degraded - degradedBefore
		p99 := s.sojournQueue.Quantile(0.99)
		timingOK = degrades >= int64(capacity/2) && p99 <= int64(bound)
		if !timingOK {
			t.Logf("attempt %d: capacity=%d/s sent=%d degrades=%d (floor %d) sojourn p99=%v (bound %v)",
				attempt, capacity, sent, degrades, capacity/2, time.Duration(p99), bound)
		}
	}
	if !timingOK {
		t.Error("no attempt held the steady-state CoDel bound: degrades >= capacity/2 and queue sojourn p99 <= bound (see attempt logs)")
	}
	elapsed := time.Since(start).Seconds()

	st := s.Stats()
	if tl.degraded.Load() == 0 {
		t.Error("client never received a StatusDegraded reply")
	}
	if st.Dropped != 0 {
		t.Errorf("FIFO-full drops = %d under CoDel, want 0", st.Dropped)
	}
	if rep := s.AuditReport(); rep.Verdict != "ok" {
		t.Errorf("audit verdict %q: %+v", rep.Verdict, rep.Overspent)
	}
	// Direct C + r*t check on top of the ledger: degraded replies must not
	// have minted credit (generous pacing margin, admission-side only).
	if budget := int64(200 + 100*(elapsed+1)); st.Allowed > budget {
		t.Errorf("allowed %d > C + r*t = %d over %.2fs", st.Allowed, budget, elapsed)
	}
	if tl.total() == 0 {
		t.Fatal("client read no responses at all")
	}
}

// TestOverloadFlashCrowd steps offered load to ~10x capacity and back,
// checking the controller sheds during the spike, loses nothing, and exits
// the dropping state once load returns to baseline.
func TestOverloadFlashCrowd(t *testing.T) {
	const (
		target   = 20 * time.Millisecond
		interval = 10 * time.Millisecond
		svc      = time.Millisecond // capacity ~1000/s
	)
	db := newDB(t, bucket.Rule{Key: "flash", RefillRate: 1e6, Capacity: 1e6, Credit: 1e6})
	s := newServer(t, Config{
		Store: db, Workers: 1, QueueSize: 8192,
		CodelTarget: target, CodelInterval: interval, Audit: true,
	})
	governService(t, svc)
	conn, err := net.Dial("udp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tl := startTally(conn)

	// Healthy baseline well under capacity even on an instrumented build,
	// where the governed 1ms frame really costs ~3ms: the claim is "light
	// load is untouched", not "a rho≈1 load is untouched".
	pace(t, conn, "flash", 150, 300*time.Millisecond)
	baseline := s.Stats().Degraded
	pace(t, conn, "flash", 10_000, 300*time.Millisecond) // 10x step
	// Back to baseline: keep a trickle flowing so the controller sees
	// recovered sojourns (CoDel state only advances on dequeue).
	deadline := time.Now().Add(15 * time.Second)
	for !codelRecovered(s) {
		if time.Now().After(deadline) {
			t.Fatalf("CoDel never exited dropping after flash crowd: %+v", s.SnapshotIntake())
		}
		pace(t, conn, "flash", 200, 50*time.Millisecond)
	}
	waitIntakeIdle(t, s)

	st := s.Stats()
	if d := st.Degraded - baseline; d == 0 {
		t.Error("flash crowd produced no degraded replies")
	}
	if baseline != 0 {
		t.Errorf("baseline load already degraded %d replies", baseline)
	}
	if st.Dropped != 0 {
		t.Errorf("FIFO-full drops = %d, want 0 (flash crowd must be answered, not lost)", st.Dropped)
	}
	if rep := s.AuditReport(); rep.Verdict != "ok" {
		t.Errorf("audit verdict %q: %+v", rep.Verdict, rep.Overspent)
	}
	if tl.degraded.Load() == 0 {
		t.Error("client never received a StatusDegraded reply during the spike")
	}
	// After recovery a retrying client is served normally again.
	c, err := transport.Dial(s.Addr(), clientCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(wire.Request{Key: "flash", Cost: 1})
	if err != nil || resp.Status == wire.StatusDegraded {
		t.Fatalf("post-recovery request: %+v %v", resp, err)
	}
}

// TestOverloadSlowDrain keeps offered load constant and slows the service
// path instead — capacity loss, not a load spike. The controller must shed
// while drain is slow and recover when service speed returns.
func TestOverloadSlowDrain(t *testing.T) {
	const (
		target   = 25 * time.Millisecond
		interval = 10 * time.Millisecond
		rate     = 600 // offered, constant throughout
	)
	db := newDB(t, bucket.Rule{Key: "drain", RefillRate: 1e6, Capacity: 1e6, Credit: 1e6})
	s := newServer(t, Config{
		Store: db, Workers: 1, QueueSize: 4096,
		CodelTarget: target, CodelInterval: interval, Audit: true,
	})
	conn, err := net.Dial("udp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tl := startTally(conn)

	// Healthy: 600/s offered against ~2000/s capacity.
	governService(t, 500*time.Microsecond)
	pace(t, conn, "drain", rate, 500*time.Millisecond)
	healthy := s.Stats().Degraded
	if healthy > 5 {
		t.Errorf("healthy phase degraded %d replies, want ~0", healthy)
	}

	// Drain slows: same offered load, capacity drops to ~200/s (3x over).
	governService(t, 5*time.Millisecond)
	pace(t, conn, "drain", rate, 1500*time.Millisecond)
	slow := s.Stats().Degraded
	if slow-healthy < 50 {
		t.Errorf("slow-drain phase degraded %d replies, want >= 50", slow-healthy)
	}

	// Service recovers; trickle until the controller exits dropping.
	governService(t, 100*time.Microsecond)
	deadline := time.Now().Add(15 * time.Second)
	for !codelRecovered(s) {
		if time.Now().After(deadline) {
			t.Fatalf("CoDel never exited dropping after drain recovered: %+v", s.SnapshotIntake())
		}
		pace(t, conn, "drain", 200, 50*time.Millisecond)
	}
	waitIntakeIdle(t, s)

	st := s.Stats()
	if st.Dropped != 0 {
		t.Errorf("FIFO-full drops = %d, want 0", st.Dropped)
	}
	if rep := s.AuditReport(); rep.Verdict != "ok" {
		t.Errorf("audit verdict %q: %+v", rep.Verdict, rep.Overspent)
	}
	if tl.degraded.Load() == 0 {
		t.Error("client never received a StatusDegraded reply while drain was slow")
	}
}
