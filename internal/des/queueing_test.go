package des

import (
	"math"
	"testing"
	"time"
)

// Queueing-theory validation: the simulator must reproduce closed-form
// M/M/1 and M/M/c results, which anchors every throughput and wait-time
// number cloudsim produces.

// meanWait returns the average queueing delay of started jobs.
func (s *Station) meanWait() Time {
	if s.served == 0 {
		return 0
	}
	return Time(int64(s.waitTimeSum) / s.served)
}

// runMMc drives a Poisson arrival process (rate lambda) into a station with
// c servers and exponential service (rate mu per server) and returns the
// mean wait in queue and the served count.
func runMMc(t *testing.T, lambda, mu float64, c int, horizon time.Duration) (meanWaitSec float64, served int64) {
	t.Helper()
	eng := NewEngine(99)
	st := NewStation(eng, c, 0, nil)
	svcMean := FromSeconds(1 / mu)
	iaMean := FromSeconds(1 / lambda)
	end := FromDuration(horizon)
	var arrive func()
	arrive = func() {
		st.Submit(eng.Exp(svcMean), 0)
		if eng.Now() < end {
			eng.After(eng.Exp(iaMean), arrive)
		}
	}
	eng.At(0, arrive)
	eng.Run(end)
	return st.meanWait().Seconds(), st.Served()
}

func TestMM1MeanWaitMatchesTheory(t *testing.T) {
	// M/M/1: Wq = rho / (mu - lambda), rho = lambda/mu.
	lambda, mu := 80.0, 100.0
	rho := lambda / mu
	want := rho / (mu - lambda) // 0.04 s
	got, served := runMMc(t, lambda, mu, 1, 600*time.Second)
	if served < 40000 {
		t.Fatalf("served only %d jobs", served)
	}
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("M/M/1 Wq = %.4fs, theory %.4fs", got, want)
	}
}

func TestMM1UtilizationMatchesRho(t *testing.T) {
	lambda, mu := 60.0, 100.0
	eng := NewEngine(7)
	st := NewStation(eng, 1, 0, nil)
	end := FromSeconds(600)
	var arrive func()
	arrive = func() {
		st.Submit(eng.Exp(FromSeconds(1/mu)), 0)
		if eng.Now() < end {
			eng.After(eng.Exp(FromSeconds(1/lambda)), arrive)
		}
	}
	eng.At(0, arrive)
	eng.Run(end)
	if got := st.busyFraction(); math.Abs(got-0.6) > 0.03 {
		t.Fatalf("utilization = %.3f, want ~0.60", got)
	}
}

func TestMMcFasterThanMM1AtSameTotalCapacity(t *testing.T) {
	// At equal total service capacity and load, pooled servers (M/M/4 with
	// per-server rate mu) wait less than 4 separate M/M/1 queues each fed
	// lambda/4 — the resource-pooling effect.
	lambda, mu := 320.0, 100.0
	pooledWait, _ := runMMc(t, lambda, mu, 4, 400*time.Second)
	separateWait, _ := runMMc(t, lambda/4, mu, 1, 400*time.Second)
	if pooledWait >= separateWait {
		t.Fatalf("pooling effect missing: pooled %.4fs >= separate %.4fs", pooledWait, separateWait)
	}
}

func TestSaturatedStationThroughputIsCapacity(t *testing.T) {
	// Offered load 2× capacity: served rate must equal c*mu.
	lambda, mu, c := 400.0, 100.0, 2
	_, served := runMMc(t, lambda, mu, c, 300*time.Second)
	rate := float64(served) / 300
	capacity := float64(c) * mu
	if math.Abs(rate-capacity)/capacity > 0.03 {
		t.Fatalf("saturated rate %.1f, capacity %.1f", rate, capacity)
	}
}

func TestLittlesLaw(t *testing.T) {
	// L = lambda_effective * W for the in-service population of an
	// unsaturated M/M/1: time-averaged busy servers equals lambda * E[S].
	lambda, mu := 50.0, 100.0
	eng := NewEngine(3)
	st := NewStation(eng, 1, 0, nil)
	end := FromSeconds(400)
	var arrive func()
	arrive = func() {
		st.Submit(eng.Exp(FromSeconds(1/mu)), 0)
		if eng.Now() < end {
			eng.After(eng.Exp(FromSeconds(1/lambda)), arrive)
		}
	}
	eng.At(0, arrive)
	eng.Run(end)
	L := st.Utilization() // mean jobs in service
	want := lambda / mu   // λ·E[S]
	if math.Abs(L-want)/want > 0.08 {
		t.Fatalf("Little's law violated: L = %.3f, λE[S] = %.3f", L, want)
	}
}
