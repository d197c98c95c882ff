// Command janus-bench regenerates every table and figure of the paper's
// evaluation (§V). Each artifact has an experiment id; run one, several, or
// all:
//
//	janus-bench -run table1
//	janus-bench -run fig5,fig6
//	janus-bench -run all
//
// The scaling figures (fig7–fig12, headline) run on the calibrated
// discrete-event simulation of the AWS testbed (internal/cloudsim); the
// load-balancer comparison (fig5), key-pressure study (fig6) and
// application-integration test (fig13a/fig13b) run on the real networked
// implementation on loopback (internal/experiments). An experiment whose
// result does not have the paper's shape fails, and the exit status is
// non-zero. See EXPERIMENTS.md for paper-vs-measured.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

type experiment struct {
	id    string
	title string
	run   func(opts options) error
}

type options struct {
	seed          int64
	fig5Requests  int
	fig6Keys      int
	fig13Duration time.Duration
}

var artifacts = []experiment{
	{"table1", "Table I — EC2 instance types", runTable1},
	{"fig5", "Fig 5 — Gateway LB vs DNS LB latency", runFig5},
	{"fig6", "Fig 6 — key pressure across 20 QoS servers", runFig6},
	{"fig7", "Fig 7 — request router vertical scalability", runFig7},
	{"fig8", "Fig 8 — request router horizontal scalability", runFig8},
	{"fig9", "Fig 9 — router vertical vs horizontal", runFig9},
	{"fig10", "Fig 10 — QoS server vertical scalability", runFig10},
	{"fig11", "Fig 11 — QoS server horizontal scalability", runFig11},
	{"fig12", "Fig 12 — QoS server vertical vs horizontal", runFig12},
	{"fig13a", "Fig 13a — application integration: accepted/rejected rates", runFig13a},
	{"fig13b", "Fig 13b — application integration: latency statistics", runFig13b},
	{"headline", "Headline — >100k req/s on 10 QoS nodes; decision latency", runHeadline},
	{"latency", "Extension — latency vs offered load on the headline deployment", runLatencyCurve},
	{"faillocal", "§II-D — failure locality: one QoS node dies mid-run", runFailureLocality},
	{"dnsskew", "§V-A ablation — DNS TTL workload skew (M routers > N clients)", runDNSSkew},
}

func main() {
	var (
		run      = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		seed     = flag.Int64("seed", 1, "random seed")
		fig5N    = flag.Int("fig5-requests", 20000, "requests per client in fig5 (paper: 100000)")
		fig6N    = flag.Int("fig6-keys", 500000, "keys per population in fig6 (paper: 500000)")
		fig13Dur = flag.Duration("fig13-duration", 45*time.Second, "fig13a trace length (paper: ~100s; the 1000-credit bucket clamps at ~33s)")
	)
	flag.Parse()
	if *list {
		for _, e := range artifacts {
			fmt.Printf("%-10s %s\n", e.id, e.title)
		}
		return
	}
	opts := options{seed: *seed, fig5Requests: *fig5N, fig6Keys: *fig6N, fig13Duration: *fig13Dur}

	want := map[string]bool{}
	if *run == "all" {
		for _, e := range artifacts {
			want[e.id] = true
		}
	} else {
		for _, id := range strings.Split(*run, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	known := map[string]bool{}
	for _, e := range artifacts {
		known[e.id] = true
	}
	var unknown []string
	for id := range want {
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "unknown experiment ids: %s (use -list)\n", strings.Join(unknown, ", "))
		os.Exit(2)
	}

	failed := 0
	for _, e := range artifacts {
		if !want[e.id] {
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n", e.id, e.title)
		start := time.Now()
		if err := e.run(opts); err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.id, err)
			failed++
			continue
		}
		fmt.Printf("--- %s done in %v ---\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
