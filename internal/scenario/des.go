package scenario

import (
	"sort"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cloudsim"
	"repro/internal/sim"
)

// RunDES executes the scenario's DES tier: cloudsim.Run of a gateway
// deployment (desRouter routers, one c3.8xlarge QoS node) under the
// scenario's open-loop rate profile and key stream. desBand's autoscale
// group adds and drains routers on the windowed p90 of end-to-end latency,
// and the QoS node decides every request through an admission.Table on the
// virtual clock. The run is strictly single-threaded and seeded — the same
// seed reproduces the identical Report.
func RunDES(sc Scenario, seed int64) Report {
	band := desBand
	band.MaxRouters = sc.DESMaxRouters
	var (
		ctl *cloudsim.Control
		grp *autoscale.Group
	)
	dep := cloudsim.Deployment{
		Routers:     cloudsim.RouterNodes(desRouter, band.MinRouters),
		QoS:         cloudsim.QoSNodes(sim.C38XLarge, 1),
		RouterQueue: desRouterQueue,
		Autoscale: func(c *cloudsim.Control) {
			ctl = c
			var err error
			grp, err = band.group(c.Latency(),
				func() (int, error) { return c.AddRouter(), nil },
				func() (int, error) { return c.DrainRouter(), nil },
				c.Routers,
				func() time.Time { return time.Unix(0, int64(c.Now())) })
			if err != nil {
				panic("scenario: bad DES autoscale config: " + err.Error())
			}
			c.Every(band.EvalInterval, func() { grp.EvaluateOnce() })
		},
	}
	capacity := sim.Node{Type: desRouter, Layer: sim.LayerRouter}.Capacity()
	res, err := cloudsim.Run(dep, cloudsim.RunConfig{
		Rate:     sc.Profile(capacity, desDuration),
		Keys:     sc.keyGen(seed, false),
		Rules:    sc.ruleFor,
		Loris:    sc.LorisFrac,
		Duration: desDuration,
		Seed:     seed,
	})
	if err != nil {
		// Scenarios are static declarations; a bad one is a programming
		// error, not a runtime condition.
		panic("scenario: bad DES deployment: " + err.Error())
	}

	rep := Report{
		Scenario:        sc.Name,
		Tier:            "des",
		Seed:            seed,
		DurationSeconds: desDuration.Seconds(),
		Degraded:        res.Degraded,
		P50SojournMs:    float64(res.Latency.Percentile(50)) / float64(time.Millisecond),
		P99SojournMs:    float64(res.Latency.Percentile(99)) / float64(time.Millisecond),
		FinalRouters:    ctl.Routers(),
	}

	// Conservation oracle: the table decided; each key's admissions are
	// held to C + r·T here. Keys go in sorted order so the float
	// accumulation — and therefore the Report — is identical per seed.
	T := desDuration.Seconds()
	names := make([]string, 0, len(res.Keys))
	for k := range res.Keys {
		names = append(names, k)
	}
	sort.Strings(names)
	var hotSum float64
	var hotN int
	for _, k := range names {
		tally := res.Keys[k]
		rep.Requests += tally.Requested
		rep.Admitted += tally.Admitted
		rep.Rejected += tally.Rejected
		rule, _, _ := sc.ruleFor(k)
		bound := rule.Capacity + rule.RefillRate*T
		if bound <= 0 {
			continue
		}
		over := float64(tally.Admitted) / bound
		if over > rep.AdmitOverBound {
			rep.AdmitOverBound = over
		}
		if float64(tally.Requested) >= bound {
			hotSum += over
			hotN++
		}
	}
	if hotN > 0 {
		rep.HotKeyUtilization = hotSum / float64(hotN)
	}

	scaleTrace(&rep, grp, time.Unix(0, 0))
	sc.DESSLO.Check(&rep)
	return rep
}
