package repro

// Hot-path intake benchmark (DESIGN.md §13): decisions/sec through
// the full UDP intake — socket, FIFO, CoDel, worker, bucket table — and the
// latency profile at 1x/2x/4x offered load. Run with
//
//	make bench-hotpath
//
// and record the results in BENCH_hotpath.json.
//
// Two measurements, deliberately separated:
//
//   - BenchmarkHotpathThroughput: ungoverned closed-loop maximum. Raw
//     batch-32 frames ping-pong over several client sockets into the one
//     intake socket and one worker.
//   - TestHotpathOverloadProfile (gated by JANUS_BENCH_HOTPATH=1): offered
//     load stepped through 1x/2x/4x of a capacity pinned by the
//     qosserver/worker/decide failpoint, reporting client-observed p99 per
//     phase and per-thirds within the 2x phase — the "p99 bounded, not
//     monotonically growing" acceptance. The governor makes the multipliers
//     exact instead of depending on how fast the runner happens to be.

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/failpoint"
	"repro/internal/metrics"
	"repro/internal/qosserver"
	"repro/internal/wire"
)

// hotpathFrame builds one batch frame of n entries on distinct keys per
// sender, so bucket-shard contention is realistic rather than a single
// cache-hot bucket.
func hotpathFrame(tb testing.TB, sender, n int) []byte {
	tb.Helper()
	entries := make([]wire.Request, n)
	for i := range entries {
		entries[i] = wire.Request{ID: uint64(i + 1), Key: fmt.Sprintf("hot-%d-%d", sender, i), Cost: 1}
	}
	pkt, err := wire.AppendBatchRequest(nil, wire.BatchRequest{Entries: entries})
	if err != nil {
		tb.Fatal(err)
	}
	return pkt
}

func BenchmarkHotpathThroughput(b *testing.B) {
	const (
		batch = 32
		conns = 4
	)
	srv, err := qosserver.New(qosserver.Config{
		Addr:        "127.0.0.1:0",
		Workers:     1,
		QueueSize:   8192,
		DefaultRule: bucket.Rule{RefillRate: 1e9, Capacity: 1e9, Credit: 1e9},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ccs := make([]net.Conn, conns)
	frames := make([][]byte, conns)
	for i := range ccs {
		conn, err := net.Dial("udp", srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		ccs[i] = conn
		frames[i] = hotpathFrame(b, i, batch)
		// Warm: install the rules and prove the path end to end.
		if _, err := conn.Write(frames[i]); err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, wire.MaxDatagram)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(buf); err != nil {
			b.Fatal(err)
		}
	}

	lat := metrics.NewHistogram()
	var mu sync.Mutex
	var frameGoal atomic.Int64
	frameGoal.Store(int64((b.N + batch - 1) / batch))
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, frame := ccs[i], frames[i]
			buf := make([]byte, wire.MaxDatagram)
			h := metrics.NewHistogram()
			for frameGoal.Add(-1) >= 0 {
				t0 := time.Now()
				if _, err := conn.Write(frame); err != nil {
					b.Error(err)
					return
				}
				// Ping-pong with resend on (rare loopback) loss: the
				// frame is idempotent for the benchmark's purposes.
				for {
					conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
					if _, err := conn.Read(buf); err == nil {
						break
					}
					if _, err := conn.Write(frame); err != nil {
						b.Error(err)
						return
					}
				}
				h.RecordDuration(time.Since(t0))
			}
			mu.Lock()
			lat.Merge(h)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	b.StopTimer()
	decisions := lat.Count() * batch
	if decisions > 0 {
		elapsed := b.Elapsed().Seconds()
		b.ReportMetric(float64(decisions)/elapsed, "decisions/s")
		b.ReportMetric(float64(lat.Quantile(0.5)), "frame-p50-ns")
		b.ReportMetric(float64(lat.Quantile(0.99)), "frame-p99-ns")
	}
	if st := srv.Stats(); st.Dropped > 0 {
		b.Errorf("closed-loop bench lost %d datagrams to full FIFOs", st.Dropped)
	}
}

// phaseResult is one offered-load step of the overload profile.
type phaseResult struct {
	Multiplier    int     `json:"multiplier"`
	OfferedPerSec int     `json:"offered_per_sec"`
	Sent          int     `json:"sent"`
	Answered      int64   `json:"answered"`
	DegradedDelta int64   `json:"degraded"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	// ThirdsP99Ms splits the phase into three equal windows: bounded means
	// the last third's p99 is not growing past the first's.
	ThirdsP99Ms []float64 `json:"thirds_p99_ms,omitempty"`
}

// TestHotpathOverloadProfile measures client-observed latency at exact
// 1x/2x/4x overload: the service rate is pinned by the worker/decide
// failpoint, then CAPACITY IS MEASURED (closed-loop) rather than assumed —
// time.Sleep oversleeps on small durations, so the nominal delay is only a
// lower bound on per-frame cost. CoDel runs at target 20ms / interval 20ms
// so the control law converges well inside each phase. Gated behind
// JANUS_BENCH_HOTPATH=1 — it is a multi-second measurement, not a
// regression test; the functional CoDel gates live in the overload
// scenario suite (overload_test.go).
func TestHotpathOverloadProfile(t *testing.T) {
	if os.Getenv("JANUS_BENCH_HOTPATH") == "" {
		t.Skip("set JANUS_BENCH_HOTPATH=1 to run the offered-load profile")
	}
	const (
		svc      = 2 * time.Millisecond
		target   = 20 * time.Millisecond
		interval = 20 * time.Millisecond
		phaseLen = 3 * time.Second
	)
	srv, err := qosserver.New(qosserver.Config{
		Addr: "127.0.0.1:0", Workers: 1, QueueSize: 16384,
		CodelTarget: target, CodelInterval: interval,
		DefaultRule: bucket.Rule{RefillRate: 1e9, Capacity: 1e9, Credit: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := failpoint.Arm("qosserver/worker/decide", failpoint.Action{Kind: failpoint.Delay, Delay: svc}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpoint.DisarmAll)

	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Calibrate: serial ping-pong against the single governed worker, so
	// 1/RTT is the true full-path service rate on this host.
	capacity := func() int {
		buf := make([]byte, wire.MaxDatagram)
		const probes = 100
		t0 := time.Now()
		for i := 0; i < probes; i++ {
			pkt, err := wire.EncodeRequest(wire.Request{ID: uint64(i + 1), Key: "hot-calibrate", Cost: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(pkt); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := conn.Read(buf); err != nil {
				t.Fatal(err)
			}
		}
		conn.SetReadDeadline(time.Time{})
		return int(float64(probes) / time.Since(t0).Seconds())
	}()
	if capacity < 50 {
		t.Fatalf("calibrated capacity %d/s implausibly low", capacity)
	}

	// sendNs[id] is the send timestamp; the reader computes RTTs.
	var mu sync.Mutex
	sendNs := make(map[uint64]int64)
	var rtts []time.Duration
	var answered int64
	go func() {
		buf := make([]byte, wire.MaxDatagram)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			now := time.Now().UnixNano()
			br, err := wire.DecodeBatchResponse(buf[:n])
			if err != nil {
				continue
			}
			mu.Lock()
			for _, r := range br.Entries {
				if t0, ok := sendNs[r.ID]; ok {
					delete(sendNs, r.ID)
					rtts = append(rtts, time.Duration(now-t0))
					answered++
				}
			}
			mu.Unlock()
		}
	}()

	var id uint64
	runPhase := func(mult int) phaseResult {
		// Drain the previous phase's backlog so phases don't bleed into
		// each other's latency samples.
		for deadline := time.Now().Add(30 * time.Second); srv.SnapshotIntake().FIFODepth != 0; {
			if time.Now().After(deadline) {
				t.Fatal("backlog never drained between phases")
			}
			time.Sleep(10 * time.Millisecond)
		}
		time.Sleep(100 * time.Millisecond)
		mu.Lock()
		rtts = rtts[:0]
		answered = 0
		for k := range sendNs {
			delete(sendNs, k)
		}
		mu.Unlock()
		degraded0 := srv.Stats().Degraded

		rate := capacity * mult
		const tick = 5 * time.Millisecond
		burst := rate / int(time.Second/tick)
		sent := 0
		for deadline := time.Now().Add(phaseLen); time.Now().Before(deadline); {
			for i := 0; i < burst; i++ {
				id++
				pkt, err := wire.EncodeRequest(wire.Request{ID: id, Key: "hot-load", Cost: 1})
				if err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				sendNs[id] = time.Now().UnixNano()
				mu.Unlock()
				conn.Write(pkt)
				sent++
			}
			time.Sleep(tick)
		}
		// Wait for the whole backlog to be answered so the phase's tail
		// latencies are counted, not dropped from the sample.
		for deadline := time.Now().Add(60 * time.Second); srv.SnapshotIntake().FIFODepth != 0; {
			if time.Now().After(deadline) {
				t.Fatal("phase backlog never drained")
			}
			time.Sleep(10 * time.Millisecond)
		}
		time.Sleep(200 * time.Millisecond)

		mu.Lock()
		defer mu.Unlock()
		res := phaseResult{
			Multiplier:    mult,
			OfferedPerSec: rate,
			Sent:          sent,
			Answered:      answered,
			DegradedDelta: srv.Stats().Degraded - degraded0,
		}
		if len(rtts) > 0 {
			// rtts is in arrival order ~= send order; thirds show trend.
			third := len(rtts) / 3
			if third > 10 {
				for i := 0; i < 3; i++ {
					res.ThirdsP99Ms = append(res.ThirdsP99Ms, p99ms(rtts[i*third:(i+1)*third]))
				}
			}
			res.P50Ms = quantileMs(rtts, 0.5)
			res.P99Ms = quantileMs(rtts, 0.99)
		}
		return res
	}

	var results []phaseResult
	for _, mult := range []int{1, 2, 4} {
		results = append(results, runPhase(mult))
	}
	out, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("hotpath overload profile (capacity %d/s, service %v/frame):\n%s\n", capacity, svc, out)

	// Sanity gates on the profile itself: overload must shed, and the 2x
	// phase's p99 must not be growing monotonically through its thirds.
	if results[1].DegradedDelta == 0 {
		t.Error("2x phase shed nothing — the governor or CoDel is miswired")
	}
	if th := results[1].ThirdsP99Ms; len(th) == 3 && th[2] > 2*th[0]+10 {
		t.Errorf("2x phase p99 grows through the run: thirds = %v ms", th)
	}
}

func quantileMs(d []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return float64(s[idx]) / 1e6
}

func p99ms(d []time.Duration) float64 { return quantileMs(d, 0.99) }
