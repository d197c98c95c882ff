package tick

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEveryCallsRepeatedly(t *testing.T) {
	calls := make(chan struct{}, 3)
	l := Every(time.Millisecond, func() {
		select {
		case calls <- struct{}{}:
		default:
		}
	})
	defer l.Stop()
	for i := 0; i < 3; i++ {
		select {
		case <-calls:
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d never came", i+1)
		}
	}
}

// TestStopWaitsForCallInFlight holds fn inside its call while Stop runs: Stop
// must not return before the call does, and the tick that came due during the
// call must not start another one, however select orders it against Stop.
func TestStopWaitsForCallInFlight(t *testing.T) {
	for i := 0; i < 20; i++ {
		var calls atomic.Int64
		entered, release := make(chan struct{}), make(chan struct{})
		l := Every(time.Millisecond, func() {
			if calls.Add(1) == 1 {
				close(entered)
				<-release
			}
		})
		<-entered
		stopped := make(chan struct{})
		go func() {
			l.Stop()
			close(stopped)
		}()
		time.Sleep(5 * time.Millisecond) // Stop is waiting and a tick is due
		select {
		case <-stopped:
			t.Fatal("Stop returned while fn was running")
		default:
		}
		close(release)
		select {
		case <-stopped:
		case <-time.After(5 * time.Second):
			t.Fatal("Stop did not return after fn did")
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("run %d: %d calls, want 1: a call began after Stop", i, n)
		}
	}
}

func TestNoCallAfterStop(t *testing.T) {
	var calls atomic.Int64
	l := Every(100*time.Microsecond, func() { calls.Add(1) })
	for calls.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	l.Stop()
	n := calls.Load()
	time.Sleep(10 * time.Millisecond)
	if m := calls.Load(); m != n {
		t.Fatalf("%d calls after Stop returned", m-n)
	}
}

func TestStopIdempotentAndConcurrent(t *testing.T) {
	l := Every(time.Millisecond, func() {})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Stop()
		}()
	}
	wg.Wait()
	l.Stop()
}

func TestStopNeverStarted(t *testing.T) {
	var l *Loop
	l.Stop()
	l.Stop()
}

func TestStopLeavesNoGoroutine(t *testing.T) {
	loops := make([]*Loop, 8)
	for i := range loops {
		loops[i] = Every(time.Millisecond, func() {})
	}
	time.Sleep(5 * time.Millisecond)
	for _, l := range loops {
		l.Stop()
	}
	// The goroutine closes done on its way out; give it the moment it needs
	// to be gone from the stack dump.
	deadline := time.Now().Add(2 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "tick.(*Loop).run") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("loop goroutine left after Stop:\n%s", stacks)
		}
		time.Sleep(time.Millisecond)
	}
}
