package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/bucket"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/loadgen"
	"repro/internal/memcache"
	"repro/internal/metrics"
	"repro/internal/minisql"
)

// The §V-D application-integration test: the photo app guards its pages
// with a QoS check keyed by client IP. One IP has a custom rule, every
// other IP gets the default rule, and a client at Fig13ClientRate exceeds
// both refill rates.
const (
	knownIP   = "203.0.113.50"
	unknownIP = "198.51.100.99"

	Fig13ClientRate = 130 // req/s, "with an intentionally added noise"

	knownRefill   = 100
	unknownRefill = 10
	unknownBucket = 100

	// PaperKnownCapacity is the known IP's bucket in the paper. The client
	// drains it at 30 credits/s net, so its clamp shows after ≈ 33 s; a
	// smaller bucket shows the same clamp sooner.
	PaperKnownCapacity = 1000
)

// fig13Stack is Janus + memcached + the photo application, the app behind
// its own endpoint and Janus behind another.
type fig13Stack struct {
	janus *cluster.Cluster
	mcSrv *memcache.Server
	photo *app.App
}

func newFig13Stack(withQoS bool, knownCapacity float64) (*fig13Stack, error) {
	s := &fig13Stack{}
	var err error
	s.janus, err = cluster.New(cluster.Config{
		Routers:     2,
		QoSServers:  2,
		DefaultRule: bucket.Rule{RefillRate: unknownRefill, Capacity: unknownBucket, Credit: unknownBucket},
		Rules:       []bucket.Rule{{Key: knownIP, RefillRate: knownRefill, Capacity: knownCapacity, Credit: knownCapacity}},
	})
	if err != nil {
		return nil, fmt.Errorf("fig13: %w", err)
	}
	s.mcSrv, err = memcache.NewServer(memcache.NewCache(), "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("fig13: %w", err)
	}
	db := minisql.NewEngine()
	if err := app.Seed(db, 50); err != nil {
		s.Close()
		return nil, fmt.Errorf("fig13: %w", err)
	}
	var qc *client.Client
	if withQoS {
		qc = client.New(s.janus.Endpoint())
	}
	s.photo, err = app.New(app.Config{
		Addr:         "127.0.0.1:0",
		MemcacheAddr: s.mcSrv.Addr(),
		DB:           db,
		QoS:          qc,
		LatestN:      10,
	})
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("fig13: %w", err)
	}
	return s, nil
}

func (s *fig13Stack) Close() {
	if s.photo != nil {
		s.photo.Close()
	}
	if s.mcSrv != nil {
		s.mcSrv.Close()
	}
	if s.janus != nil {
		s.janus.Close()
	}
}

// checker drives the photo app's index page as a given client IP; allowed
// means HTTP 200, denied means the 403 throttle.
func (s *fig13Stack) checker() loadgen.Checker {
	httpClient := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 256},
		Timeout:   10 * time.Second,
	}
	url := "http://" + s.photo.Addr() + "/"
	return loadgen.CheckerFunc(func(ip string) (bool, error) {
		req, err := http.NewRequest("GET", url, nil)
		if err != nil {
			return false, err
		}
		req.Header.Set("X-Forwarded-For", ip)
		resp, err := httpClient.Do(req)
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		switch resp.StatusCode {
		case http.StatusOK:
			return true, nil
		case http.StatusForbidden:
			return false, nil
		default:
			return false, fmt.Errorf("HTTP %d", resp.StatusCode)
		}
	})
}

// Fig13aSize sizes Fig 13a.
type Fig13aSize struct {
	Duration      time.Duration // trace length (paper: ~100 s)
	KnownCapacity float64       // the known IP's bucket (PaperKnownCapacity)
	Seed          int64
}

// RateTrace is one client's per-second outcome counts against one rule.
type RateTrace struct {
	Refill             float64   // the rule's refill rate, req/s
	Accepted, Rejected []float64 // same length
}

// Fig13aResult is the two clients' traces.
type Fig13aResult struct {
	Known, Unknown RateTrace
}

// Fig13a replays the two Fig 13a clients against one stack at the same
// time (their buckets are independent) and records what the app served and
// what it throttled each second.
func Fig13a(size Fig13aSize) (Fig13aResult, error) {
	stack, err := newFig13Stack(true, size.KnownCapacity)
	if err != nil {
		return Fig13aResult{}, err
	}
	defer stack.Close()
	checker := stack.checker()

	trace := func(ip string, refill float64) (RateTrace, error) {
		res := loadgen.RunOpenLoop(context.Background(), loadgen.OpenLoopConfig{
			Checker:       checker,
			Keys:          &loadgen.FixedGen{Key: ip},
			Rate:          Fig13ClientRate,
			NoiseFraction: 0.2,
			Duration:      size.Duration,
			Seed:          size.Seed,
			TrackSeries:   true,
		})
		if res.Errors > 0 {
			return RateTrace{}, fmt.Errorf("fig13a: %s: %d request errors", ip, res.Errors)
		}
		acc, rej := res.AcceptedSeries.Values(), res.RejectedSeries.Values()
		n := max(len(acc), len(rej))
		t := RateTrace{Refill: refill, Accepted: make([]float64, n), Rejected: make([]float64, n)}
		copy(t.Accepted, acc)
		copy(t.Rejected, rej)
		return t, nil
	}
	var res Fig13aResult
	var knownErr, unknownErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); res.Known, knownErr = trace(knownIP, knownRefill) }()
	go func() { defer wg.Done(); res.Unknown, unknownErr = trace(unknownIP, unknownRefill) }()
	wg.Wait()
	if knownErr != nil {
		return Fig13aResult{}, knownErr
	}
	if unknownErr != nil {
		return Fig13aResult{}, unknownErr
	}
	return res, res.check()
}

func (r Fig13aResult) check() error {
	for _, t := range []RateTrace{r.Known, r.Unknown} {
		if err := t.check(); err != nil {
			return fmt.Errorf("fig13a shape not reproduced: refill %v: %w", t.Refill, err)
		}
	}
	return nil
}

// check requires the paper's burst-then-clamp: stored credit lets the first
// second admit more than the refill rate could, and once it is spent the
// client is throttled to the refill rate. Steady state is the last three
// full seconds; the final bucket is partial and left out.
func (t RateTrace) check() error {
	n := len(t.Accepted)
	if n < 6 {
		return fmt.Errorf("trace of %d s is too short to show a steady state", n)
	}
	if t.Accepted[0] <= t.Refill {
		return fmt.Errorf("no burst: %.0f accepted in the first second", t.Accepted[0])
	}
	accepted, rejected := mean(t.Accepted[n-4:n-1]), mean(t.Rejected[n-4:n-1])
	if rejected == 0 {
		return fmt.Errorf("never clamps: %.1f req/s accepted and none rejected at the end of the trace", accepted)
	}
	if math.Abs(accepted-t.Refill) > 0.35*t.Refill {
		return fmt.Errorf("steady accepted rate %.1f req/s, want within 35%% of the refill rate", accepted)
	}
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Fig13bSize sizes Fig 13b.
type Fig13bSize struct {
	Requests int // closed-loop requests per configuration
}

// Fig13bResult holds the page latency the client saw per configuration:
// the app without QoS support, accepted requests under each rule, and the
// throttled requests of both rules together.
type Fig13bResult struct {
	NoQoS, Refill10, Refill100, Rejected *metrics.Histogram
}

// Fig13b measures what the admission check costs the application's
// clients, with the paper's rules.
func Fig13b(size Fig13bSize) (Fig13bResult, error) {
	run := func(checker loadgen.Checker, ip string) (loadgen.Result, error) {
		res := loadgen.RunClosedLoop(context.Background(), loadgen.ClosedLoopConfig{
			Checker:     checker,
			Keys:        &loadgen.FixedGen{Key: ip},
			Concurrency: 4,
			Requests:    int64(size.Requests),
		})
		if res.Errors > 0 {
			return res, fmt.Errorf("fig13b: %s: %d request errors", ip, res.Errors)
		}
		return res, nil
	}

	base, err := newFig13Stack(false, PaperKnownCapacity)
	if err != nil {
		return Fig13bResult{}, err
	}
	defer base.Close()
	noQoS, err := run(base.checker(), knownIP)
	if err != nil {
		return Fig13bResult{}, err
	}

	qos, err := newFig13Stack(true, PaperKnownCapacity)
	if err != nil {
		return Fig13bResult{}, err
	}
	defer qos.Close()
	checker := qos.checker()
	r100, err := run(checker, knownIP)
	if err != nil {
		return Fig13bResult{}, err
	}
	r10, err := run(checker, unknownIP)
	if err != nil {
		return Fig13bResult{}, err
	}
	rejected := metrics.NewHistogram()
	rejected.Merge(r100.RejectedLatency)
	rejected.Merge(r10.RejectedLatency)

	res := Fig13bResult{
		NoQoS:     noQoS.Latency,
		Refill10:  r10.AcceptedLatency,
		Refill100: r100.AcceptedLatency,
		Rejected:  rejected,
	}
	return res, res.check()
}

func (r Fig13bResult) check() error {
	if r.Rejected.Count() == 0 {
		return fmt.Errorf("fig13b shape not reproduced: no rejected requests recorded")
	}
	if r.Rejected.Mean() >= r.Refill100.Mean() {
		return fmt.Errorf("fig13b shape not reproduced: rejections (%.2fms) not faster than accepted (%.2fms)",
			r.Rejected.Mean()/1e6, r.Refill100.Mean()/1e6)
	}
	return nil
}
