package loadgen

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestClosedLoopFixedRequestCount(t *testing.T) {
	var calls atomic.Int64
	checker := CheckerFunc(func(key string) (bool, error) {
		calls.Add(1)
		return true, nil
	})
	res := RunClosedLoop(context.Background(), ClosedLoopConfig{
		Checker: checker,
		// A generator whose Clone draws from the parent's rng: under -race
		// this fails if the workers are handed their clones concurrently.
		Keys:        NewUUIDGen(1),
		Concurrency: 4,
		Requests:    1000,
	})
	if calls.Load() != 1000 {
		t.Fatalf("calls = %d", calls.Load())
	}
	if res.Accepted != 1000 || res.Rejected != 0 || res.Errors != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Latency.Count() != 1000 {
		t.Fatalf("latency count = %d", res.Latency.Count())
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput not positive")
	}
}

func TestClosedLoopDurationBound(t *testing.T) {
	checker := CheckerFunc(func(string) (bool, error) { return true, nil })
	start := time.Now()
	res := RunClosedLoop(context.Background(), ClosedLoopConfig{
		Checker:     checker,
		Keys:        &FixedGen{Key: "k"},
		Concurrency: 2,
		Duration:    50 * time.Millisecond,
	})
	if el := time.Since(start); el < 50*time.Millisecond || el > 2*time.Second {
		t.Fatalf("elapsed = %v", el)
	}
	if res.Accepted == 0 {
		t.Fatal("no requests completed")
	}
}

func TestClosedLoopSplitsVerdicts(t *testing.T) {
	var n atomic.Int64
	checker := CheckerFunc(func(string) (bool, error) {
		return n.Add(1)%2 == 0, nil
	})
	res := RunClosedLoop(context.Background(), ClosedLoopConfig{
		Checker:  checker,
		Keys:     &FixedGen{Key: "k"},
		Requests: 100,
	})
	if res.Accepted != 50 || res.Rejected != 50 {
		t.Fatalf("accepted/rejected = %d/%d", res.Accepted, res.Rejected)
	}
	if res.AcceptedLatency.Count() != 50 || res.RejectedLatency.Count() != 50 {
		t.Fatal("latency split wrong")
	}
}

func TestClosedLoopCountsErrors(t *testing.T) {
	checker := CheckerFunc(func(string) (bool, error) { return false, errors.New("boom") })
	res := RunClosedLoop(context.Background(), ClosedLoopConfig{
		Checker:  checker,
		Keys:     &FixedGen{Key: "k"},
		Requests: 10,
	})
	if res.Errors != 10 || res.Latency.Count() != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestClosedLoopContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	checker := CheckerFunc(func(string) (bool, error) {
		if n.Add(1) > 10 {
			cancel()
		}
		return true, nil
	})
	res := RunClosedLoop(ctx, ClosedLoopConfig{
		Checker: checker,
		Keys:    &FixedGen{Key: "k"},
		// No request bound; duration long — cancel must stop it.
		Duration:    10 * time.Second,
		Concurrency: 2,
	})
	if res.Elapsed > 5*time.Second {
		t.Fatalf("cancel did not stop the run: %v", res.Elapsed)
	}
}

func TestClosedLoopTrackSeries(t *testing.T) {
	checker := CheckerFunc(func(string) (bool, error) { return true, nil })
	res := RunClosedLoop(context.Background(), ClosedLoopConfig{
		Checker:     checker,
		Keys:        &FixedGen{Key: "k"},
		Requests:    50,
		TrackSeries: true,
	})
	sum := 0.0
	for _, v := range res.AcceptedSeries.Values() {
		sum += v
	}
	if sum != 50 {
		t.Fatalf("series total = %v", sum)
	}
}

func TestOpenLoopApproximatesRate(t *testing.T) {
	checker := CheckerFunc(func(string) (bool, error) { return true, nil })
	res := RunOpenLoop(context.Background(), OpenLoopConfig{
		Checker:  checker,
		Keys:     &FixedGen{Key: "k"},
		Rate:     500,
		Duration: 500 * time.Millisecond,
	})
	got := float64(res.Accepted) / res.Elapsed.Seconds()
	if math.Abs(got-500)/500 > 0.25 {
		t.Fatalf("rate = %.1f, want ~500", got)
	}
}

func TestOpenLoopNoise(t *testing.T) {
	checker := CheckerFunc(func(string) (bool, error) { return true, nil })
	res := RunOpenLoop(context.Background(), OpenLoopConfig{
		Checker:       checker,
		Keys:          &FixedGen{Key: "k"},
		Rate:          300,
		NoiseFraction: 0.5,
		Duration:      300 * time.Millisecond,
		Seed:          42,
	})
	if res.Accepted == 0 {
		t.Fatal("no requests issued")
	}
}

func TestResultThroughputZeroElapsed(t *testing.T) {
	var r Result
	if r.Throughput() != 0 {
		t.Fatal("zero-elapsed throughput not 0")
	}
}
