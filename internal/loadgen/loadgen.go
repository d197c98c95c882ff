package loadgen

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Clock supplies time to a run. The zero value reads the real wall clock;
// experiments inject deterministic functions so paced runs are reproducible
// (the simclock analyzer bans raw time.Now in this package).
type Clock struct {
	// NowFunc returns the current time; nil means real time.
	NowFunc func() time.Time
	// AfterFunc mirrors time.After; nil means the real timer.
	AfterFunc func(time.Duration) <-chan time.Time
}

// Now reads the injected clock (or the wall clock when none is injected).
// Exported so scenario harnesses built on other packages can share one
// clock discipline — and one pair of wall-clock fallbacks — with the
// generator.
func (c Clock) Now() time.Time {
	if c.NowFunc != nil {
		return c.NowFunc()
	}
	//lint:ignore simclock fallback to the wall clock when no clock is injected
	return time.Now()
}

// After mirrors time.After on the injected clock.
func (c Clock) After(d time.Duration) <-chan time.Time {
	if c.AfterFunc != nil {
		return c.AfterFunc(d)
	}
	//lint:ignore simclock fallback to the real timer when no clock is injected
	return time.After(d)
}

func (c Clock) now() time.Time                         { return c.Now() }
func (c Clock) after(d time.Duration) <-chan time.Time { return c.After(d) }

// Checker performs one admission check; implementations include
// *client.Client (against an LB or a router) and the checkers that
// cluster.Checker builds.
type Checker interface {
	Check(key string) (allowed bool, err error)
}

// CheckerFunc adapts a function to Checker.
type CheckerFunc func(key string) (bool, error)

// Check implements Checker.
func (f CheckerFunc) Check(key string) (bool, error) { return f(key) }

// Result aggregates one load-generation run.
type Result struct {
	// Latency is the per-request round-trip histogram (nanoseconds).
	Latency *metrics.Histogram
	// AcceptedLatency / RejectedLatency split by verdict (Fig 13b).
	AcceptedLatency *metrics.Histogram
	RejectedLatency *metrics.Histogram
	// Accepted/Rejected/Errors count outcomes.
	Accepted int64
	Rejected int64
	Errors   int64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// AcceptedSeries/RejectedSeries are per-second rate traces (Fig 13a);
	// nil unless requested.
	AcceptedSeries *metrics.TimeSeries
	RejectedSeries *metrics.TimeSeries
}

// Throughput returns completed (non-error) requests per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Accepted+r.Rejected) / r.Elapsed.Seconds()
}

// recorder collects one run's outcomes; its methods are safe for
// concurrent use by the run's workers.
type recorder struct {
	clock Clock
	start time.Time
	res   Result

	accepted, rejected, errors metrics.Counter
}

func newRecorder(clock Clock, start time.Time, trackSeries bool) *recorder {
	r := &recorder{clock: clock, start: start, res: Result{
		Latency:         metrics.NewHistogram(),
		AcceptedLatency: metrics.NewHistogram(),
		RejectedLatency: metrics.NewHistogram(),
	}}
	if trackSeries {
		r.res.AcceptedSeries = metrics.NewTimeSeries(start, time.Second)
		r.res.RejectedSeries = metrics.NewTimeSeries(start, time.Second)
	}
	return r
}

// check issues one admission check and records its verdict and latency; an
// error counts as an error only, with no latency.
func (r *recorder) check(c Checker, key string) {
	t0 := r.clock.now()
	ok, err := c.Check(key)
	lat := r.clock.now().Sub(t0)
	if err != nil {
		r.errors.Inc()
		return
	}
	r.res.Latency.RecordDuration(lat)
	count, hist, series := &r.rejected, r.res.RejectedLatency, r.res.RejectedSeries
	if ok {
		count, hist, series = &r.accepted, r.res.AcceptedLatency, r.res.AcceptedSeries
	}
	count.Inc()
	hist.RecordDuration(lat)
	if series != nil {
		series.Observe(r.clock.now(), 1)
	}
}

// result closes the run.
func (r *recorder) result() Result {
	res := r.res
	res.Accepted = r.accepted.Value()
	res.Rejected = r.rejected.Value()
	res.Errors = r.errors.Value()
	res.Elapsed = r.clock.now().Sub(r.start)
	return res
}

// ClosedLoopConfig drives N concurrent workers, each issuing its next
// request as soon as the previous completes — ab's concurrency model.
type ClosedLoopConfig struct {
	// Checker is the system under test.
	Checker Checker
	// Keys generates the key stream (each worker gets a Clone).
	Keys KeyGen
	// Concurrency is the number of workers (ab -c).
	Concurrency int
	// Requests is the total number of requests (ab -n); 0 means run until
	// Duration elapses.
	Requests int64
	// Duration bounds the run when Requests is 0.
	Duration time.Duration
	// TrackSeries enables per-second accepted/rejected traces.
	TrackSeries bool
	// Clock supplies time; the zero value uses real time.
	Clock Clock
}

// RunClosedLoop executes a closed-loop benchmark run.
func RunClosedLoop(ctx context.Context, cfg ClosedLoopConfig) Result {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	start := cfg.Clock.now()
	rec := newRecorder(cfg.Clock, start, cfg.TrackSeries)
	var remaining int64 = cfg.Requests
	var remMu sync.Mutex
	take := func() bool {
		if cfg.Requests == 0 {
			return true
		}
		remMu.Lock()
		defer remMu.Unlock()
		if remaining <= 0 {
			return false
		}
		remaining--
		return true
	}
	deadline := time.Time{}
	if cfg.Requests == 0 {
		d := cfg.Duration
		if d <= 0 {
			d = time.Second
		}
		deadline = start.Add(d)
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		// Cloned here, not in the worker: Clone may draw from the parent
		// generator's rng, which is not safe for concurrent use.
		keys := cfg.Keys.Clone(w)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				if !deadline.IsZero() && cfg.Clock.now().After(deadline) {
					return
				}
				if !take() {
					return
				}
				rec.check(cfg.Checker, keys.Next())
			}
		}()
	}
	wg.Wait()
	return rec.result()
}

// OpenLoopConfig paces requests at a target rate independent of response
// latency — the Fig 13a client ("an access rate of 130 requests per second,
// with an intentionally added noise").
type OpenLoopConfig struct {
	Checker Checker
	Keys    KeyGen
	// Rate is the average request rate per second.
	Rate float64
	// RateFunc, when non-nil, supplies the instantaneous target rate as a
	// function of elapsed run time, overriding Rate — scenario profiles
	// (diurnal sine, flash-crowd step) plug in here. It is sampled before
	// every arrival, so a 10× step takes effect within one inter-arrival
	// gap. Values <= 0 pause the stream for 10ms and re-sample.
	RateFunc func(elapsed time.Duration) float64
	// NoiseFraction perturbs each inter-arrival gap uniformly by
	// ±NoiseFraction (0 disables; the paper adds intentional noise).
	NoiseFraction float64
	// Duration is the run length.
	Duration time.Duration
	// Workers issues requests concurrently so a slow response does not
	// stall the pacing (default 8).
	Workers int
	// Seed seeds the noise source.
	Seed int64
	// TrackSeries enables per-second accepted/rejected traces.
	TrackSeries bool
	// Clock supplies time; the zero value uses real time.
	Clock Clock
}

// RunOpenLoop executes a paced benchmark run.
func RunOpenLoop(ctx context.Context, cfg OpenLoopConfig) Result {
	if cfg.Rate <= 0 && cfg.RateFunc == nil {
		cfg.Rate = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	start := cfg.Clock.now()
	rec := newRecorder(cfg.Clock, start, cfg.TrackSeries)
	jobs := make(chan string, cfg.Workers*4)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range jobs {
				rec.check(cfg.Checker, key)
			}
		}()
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	keys := cfg.Keys
	deadline := start.Add(cfg.Duration)
	next := start
pacing:
	for cfg.Clock.now().Before(deadline) {
		if ctx.Err() != nil {
			break
		}
		rate := cfg.Rate
		if cfg.RateFunc != nil {
			rate = cfg.RateFunc(cfg.Clock.now().Sub(start))
			if rate <= 0 {
				// The profile paused the stream: idle briefly, re-sample.
				select {
				case <-cfg.Clock.after(10 * time.Millisecond):
				case <-ctx.Done():
					break pacing
				}
				next = cfg.Clock.now()
				continue
			}
		}
		gap := time.Duration(float64(time.Second) / rate)
		jitter := 1.0
		if cfg.NoiseFraction > 0 {
			jitter = 1 + (rng.Float64()*2-1)*cfg.NoiseFraction
		}
		next = next.Add(time.Duration(float64(gap) * jitter))
		if d := next.Sub(cfg.Clock.now()); d > 0 {
			select {
			case <-cfg.Clock.after(d):
			case <-ctx.Done():
				break pacing
			}
		}
		select {
		case jobs <- keys.Next():
		default:
			// All workers busy and the queue is full: the request is
			// effectively dropped by the client, as ab does under overload.
			rec.errors.Inc()
		}
	}
	close(jobs)
	wg.Wait()
	return rec.result()
}
