package scenario

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bucket"
	"repro/internal/cluster"
	"repro/internal/failpoint"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// realRules seeds one token-bucket rule per real-tier key, named exactly
// like the keys the scenario generator draws ("<tenant>-z<N>-<rank>"), so
// every request hits a governed bucket and the aggregate Σ(C + r·t) bound
// is exact.
func realRules(sc Scenario) []bucket.Rule {
	var rules []bucket.Rule
	for _, t := range sc.Tenants {
		for rank := 0; rank < t.RealKeys; rank++ {
			rules = append(rules, t.rule(t.Name+"-"+loadgen.ZipfKey(t.RealKeys, rank)))
		}
	}
	return rules
}

// RunReal executes the scenario's real tier: a live loopback cluster
// (gateway LB → routers with the UDP transport → one QoS server with CoDel
// shedding on its intake FIFO and the audit ledger), the decide path pinned
// by the worker/decide failpoint so the governed capacity is known, and an
// autoscale.Group scaling the router layer on the LB's measured windowed
// p90. long selects the nightly duration. The failpoint is global process
// state: do not run two real tiers concurrently.
func RunReal(ctx context.Context, sc Scenario, seed int64, long bool) (Report, error) {
	p := sc.Real
	clk := loadgen.Clock{}

	c, err := cluster.New(cluster.Config{
		Routers:       realBand.MinRouters,
		QoSServers:    1,
		QoSWorkers:    1,
		CodelTarget:   20 * time.Millisecond,
		CodelInterval: 50 * time.Millisecond,
		Audit:         true,
		AuditInterval: 50 * time.Millisecond,
		Rules:         realRules(sc),
		Transport: transport.Config{
			Timeout: 150 * time.Millisecond, Retries: 1,
		},
	})
	if err != nil {
		return Report{}, err
	}
	defer c.Close()

	const decideSite = "qosserver/worker/decide"
	if err := failpoint.Arm(decideSite, failpoint.Action{Kind: failpoint.Delay, Delay: p.DecideDelay}); err != nil {
		return Report{}, err
	}
	defer failpoint.Disarm(decideSite)

	grp, err := realBand.group(c.LB.Latency(),
		func() (int, error) {
			if _, err := c.AddRouter(); err != nil {
				return c.RouterCount(), err
			}
			return c.RouterCount(), nil
		},
		func() (int, error) {
			if err := c.RemoveRouter(); err != nil {
				return c.RouterCount(), err
			}
			return c.RouterCount(), nil
		},
		c.RouterCount, clk.Now)
	if err != nil {
		return Report{}, fmt.Errorf("scenario: real autoscale config: %w", err)
	}

	// Drive the control loop on the injected-timer discipline rather than
	// Group.Start's wall ticker, so a future virtual-clock real tier only
	// has to swap clk.
	evalStop := make(chan struct{})
	evalDone := make(chan struct{})
	go func() {
		defer close(evalDone)
		for {
			select {
			case <-evalStop:
				return
			case <-clk.After(realBand.EvalInterval):
				grp.EvaluateOnce()
			}
		}
	}()

	var loris *lorisPack
	if p.LorisConns > 0 {
		loris = startLoris(clk, c.Endpoint(), p.LorisConns)
	}

	dur := p.Duration
	if long && p.LongDuration > 0 {
		dur = p.LongDuration
	}
	capacity := float64(time.Second) / float64(p.DecideDelay)
	start := clk.Now()
	res := loadgen.RunOpenLoop(ctx, loadgen.OpenLoopConfig{
		Checker:  c.Checker(),
		Keys:     sc.keyGen(seed, true),
		RateFunc: sc.Profile(capacity, dur),
		Duration: dur,
		Workers:  p.Workers,
		Seed:     seed,
		Clock:    clk,
	})

	if loris != nil {
		loris.Stop()
	}
	close(evalStop)
	<-evalDone
	// Let in-flight exchanges and audit passes land before reading stats.
	<-clk.After(150 * time.Millisecond)
	elapsed := clk.Now().Sub(start).Seconds()

	stats := c.AggregateQoSStats()
	sojourn := metrics.NewHistogram()
	verdict := "ok"
	for _, pair := range c.QoS {
		if pair.Master == nil {
			continue
		}
		sojourn.Merge(pair.Master.SojournTotal())
		if rep := pair.Master.AuditReport(); rep.Verdict != "ok" {
			verdict = rep.Verdict
		}
	}

	rep := Report{
		Scenario:        sc.Name,
		Tier:            "real",
		Seed:            seed,
		DurationSeconds: elapsed,
		Requests:        res.Accepted + res.Rejected + res.Errors,
		Admitted:        stats.Allowed,
		Rejected:        stats.Denied,
		Degraded:        stats.Degraded,
		Dropped:         stats.Dropped,
		Errors:          res.Errors,
		P50SojournMs:    float64(sojourn.Percentile(50)) / float64(time.Millisecond),
		P99SojournMs:    float64(sojourn.Percentile(99)) / float64(time.Millisecond),
		FinalRouters:    c.RouterCount(),
		AuditVerdict:    verdict,
	}

	// Aggregate conservation bound: with every drawn key seeded, admitted
	// can never exceed Σ_keys (C + r·t). Every admission is decided on the
	// QoS server (the audit ledger is the per-key oracle); retransmissions
	// can only double-answer, not double-spend.
	var bound float64
	for _, t := range sc.Tenants {
		bound += float64(t.RealKeys) * (t.Capacity + t.Rate*elapsed)
	}
	if bound > 0 {
		rep.AdmitOverBound = float64(stats.Allowed) / bound
	}

	scaleTrace(&rep, grp, start)
	sc.RealSLO.Check(&rep)
	return rep, nil
}
