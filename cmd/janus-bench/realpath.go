package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/textplot"
)

// Real-path experiments: internal/experiments runs the actual networked
// implementation on loopback and checks the paper's shape; this file prints
// what it returns. A result that fails its shape check is printed before
// the error is reported.

func runFig5(o options) error {
	res, err := experiments.Fig5(experiments.Fig5Size{Requests: o.fig5Requests, Seed: o.seed})
	if res.DNS == nil {
		return err
	}
	fmt.Printf("2 routers + 2 QoS servers; 2 single-thread clients × %d requests each\n", o.fig5Requests)
	fmt.Printf("(gateway path includes an injected %v hop modelling the ELB's extra TCP leg)\n", experiments.GatewayHopDelay)
	fmt.Printf("%-10s %12s %12s\n", "metric", "DNS LB", "Gateway LB")
	fmt.Printf("%-10s %10.0fµs %10.0fµs\n", "average", res.DNS.Mean()/1000, res.Gateway.Mean()/1000)
	for _, p := range []float64{90, 99, 99.9} {
		fmt.Printf("P%-9v %10dµs %10dµs\n", p, res.DNS.Percentile(p)/1000, res.Gateway.Percentile(p)/1000)
	}
	return err
}

func runFig6(o options) error {
	res, err := experiments.Fig6(experiments.Fig6Size{Keys: o.fig6Keys, Seed: o.seed})
	fmt.Printf("%d keys per population across %d QoS servers (uniform = %.3f%%)\n",
		o.fig6Keys, experiments.Fig6Servers, 100.0/experiments.Fig6Servers)
	fmt.Printf("%-20s %8s %8s %8s\n", "population", "min%", "max%", "stddev%")
	for _, p := range res.Populations {
		fmt.Printf("%-20s %8.3f %8.3f %8.4f\n", p.Population, p.MinPct, p.MaxPct, p.StdDevPct)
	}
	fmt.Println("paper: min 4.933%, max 5.065%, stddev < 0.03%")
	return err
}

func runFig13a(o options) error {
	res, err := experiments.Fig13a(experiments.Fig13aSize{
		Duration:      o.fig13Duration,
		KnownCapacity: experiments.PaperKnownCapacity,
		Seed:          o.seed,
	})
	if len(res.Known.Accepted) == 0 {
		return err
	}
	fmt.Printf("two clients at ~%d req/s (with noise) for %v\n", experiments.Fig13ClientRate, o.fig13Duration)
	fmt.Printf("%4s %18s %18s %18s %18s\n", "sec",
		"refill100 accept", "refill100 reject", "refill10 accept", "refill10 reject")
	at := func(s []float64, i int) float64 {
		if i < len(s) {
			return s[i]
		}
		return 0
	}
	k, u := res.Known, res.Unknown
	for i := 0; i < max(len(k.Accepted), len(u.Accepted)); i++ {
		fmt.Printf("%4d %18.0f %18.0f %18.0f %18.0f\n", i,
			at(k.Accepted, i), at(k.Rejected, i), at(u.Accepted, i), at(u.Rejected, i))
	}
	fmt.Println()
	fmt.Print(textplot.LineChart([]textplot.Series{
		{Name: "refill100-accepted", Values: k.Accepted},
		{Name: "refill10-accepted", Values: u.Accepted},
	}, 64, 12))
	fmt.Println("shape (paper): burst at full client rate while credit lasts, then clamp to the refill rate")
	return err
}

func runFig13b(options) error {
	const requests = 4000
	res, err := experiments.Fig13b(experiments.Fig13bSize{Requests: requests})
	if res.NoQoS == nil {
		return err
	}
	fmt.Printf("%d closed-loop requests per configuration\n", requests)
	fmt.Printf("%-8s %10s %12s %12s %12s\n", "metric", "NoQoS", "Refill=10", "Refill=100", "Rejected")
	pr := func(name string, f func(h *metrics.Histogram) float64) {
		fmt.Printf("%-8s %9.2fms %11.2fms %11.2fms %11.2fms\n", name,
			f(res.NoQoS)/1e6, f(res.Refill10)/1e6, f(res.Refill100)/1e6, f(res.Rejected)/1e6)
	}
	pr("average", (*metrics.Histogram).Mean)
	for _, p := range []float64{90, 99, 99.9} {
		pr(fmt.Sprintf("P%v", p), func(h *metrics.Histogram) float64 { return float64(h.Percentile(p)) })
	}
	fmt.Println("shape (paper): accepted ≈ NoQoS + small overhead; rejected throttled far faster than serving the page")
	return err
}
