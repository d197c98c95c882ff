package failpoint

import (
	"testing"
	"time"
)

// The disarmed gate is the cost every hot-path site pays on every operation
// forever; the acceptance bar is ≤ 1 ns/op. The armed path only runs during
// chaos, so its cost is uninteresting. Run with
//
//	go test -run '^$' -bench . ./internal/failpoint
var fpBench = New("failpointtest/site/bench")

// BenchmarkDisarmedGate measures the exact expression the transport send
// path executes per datagram: Armed() on a disarmed failpoint.
func BenchmarkDisarmedGate(b *testing.B) {
	n := 0
	for i := 0; i < b.N; i++ {
		if fpBench.Armed() {
			n++
		}
	}
	if n != 0 {
		b.Fatal("benchmark failpoint was armed")
	}
}

// BenchmarkDisarmedGateParallel is the same gate under contention — all
// QoS-server workers cross the qosserver/udp/recv site concurrently.
func BenchmarkDisarmedGateParallel(b *testing.B) {
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if fpBench.Armed() {
				b.Fatal("benchmark failpoint was armed")
			}
		}
	})
}

// BenchmarkArmedDropEval prices the armed path for context: one atomic load
// plus the action switch.
func BenchmarkArmedDropEval(b *testing.B) {
	if err := Arm(fpBench.Name(), Action{Kind: Drop}); err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := Disarm(fpBench.Name()); err != nil {
			b.Fatal(err)
		}
	}()
	for i := 0; i < b.N; i++ {
		if fpBench.Eval().Kind != Drop {
			b.Fatal("armed drop did not fire")
		}
	}
}

// TestConcurrentEvalAndArm hammers one failpoint from many goroutines while
// arming and disarming it — the race detector's view of the atomic
// discipline.
func TestConcurrentEvalAndArm(t *testing.T) {
	t.Cleanup(DisarmAll)
	stop := make(chan struct{})
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if fpBench.Armed() {
					o := fpBench.EvalPeer("peer")
					o.Sleep()
				}
			}
		}()
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := Arm(fpBench.Name(), Action{Kind: Drop, P: 0.5, Count: 100}); err != nil {
			t.Fatal(err)
		}
		if err := Arm(fpBench.Name(), Action{Kind: Partition, Peers: []string{"peer"}}); err != nil {
			t.Fatal(err)
		}
		if err := Disarm(fpBench.Name()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for i := 0; i < 4; i++ {
		<-done
	}
}
