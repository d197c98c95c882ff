// Command janus-ab is the modified Apache-Bench-style load generator the
// paper uses for its evaluation (§V): it fires massive concurrent QoS
// requests with configurable key populations at a Janus HTTP endpoint and
// reports throughput and latency percentiles.
//
// Examples:
//
//	janus-ab -endpoint 127.0.0.1:9090 -n 100000 -c 64 -keys uuid
//	janus-ab -endpoint 127.0.0.1:9090 -rate 130 -noise 0.3 -t 100s -keys fixed:203.0.113.50
//	janus-ab -scenario list
//	janus-ab -scenario flash-crowd                  (DES tier, deterministic)
//	janus-ab -scenario flash-crowd -tier real -long (boots a loopback cluster)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/loadgen"
	"repro/internal/scenario"
)

func main() {
	var (
		endpoint = flag.String("endpoint", "127.0.0.1:9090", "Janus HTTP endpoint (LB or router)")
		n        = flag.Int64("n", 0, "total requests (closed loop; 0 = run for -t)")
		c        = flag.Int("c", 1, "concurrency (closed loop)")
		rate     = flag.Float64("rate", 0, "open-loop request rate (req/s; overrides -n/-c pacing)")
		noise    = flag.Float64("noise", 0, "open-loop inter-arrival noise fraction (0..1)")
		duration = flag.Duration("t", 10*time.Second, "run duration when -n is 0 or -rate is set")
		keys     = flag.String("keys", "uuid", "key population: uuid|timestamp|words|seq[:N]|fixed:K|cycle:a,b,c|zipf:s:N|tiered:spec@w,...")
		seed     = flag.Int64("seed", 1, "key generator seed")
		series   = flag.Bool("series", false, "print per-second accepted/rejected series")
		scn      = flag.String("scenario", "", "replay a named workload scenario standalone and print its SLO report ('list' to enumerate)")
		tier     = flag.String("tier", "des", "scenario tier: des (simulated, deterministic per -seed) or real (boots a loopback cluster)")
		long     = flag.Bool("long", false, "use the scenario's nightly (long) budget in the real tier")
	)
	flag.Parse()
	if *scn != "" {
		runScenario(*scn, *tier, *seed, *long)
		return
	}
	gen, err := loadgen.FromSpec(*keys, *seed)
	if err != nil {
		log.Fatal(err)
	}
	checker := client.New(*endpoint)

	var res loadgen.Result
	if *rate > 0 {
		res = loadgen.RunOpenLoop(context.Background(), loadgen.OpenLoopConfig{
			Checker:       checker,
			Keys:          gen,
			Rate:          *rate,
			NoiseFraction: *noise,
			Duration:      *duration,
			Seed:          *seed,
			TrackSeries:   *series,
		})
	} else {
		res = loadgen.RunClosedLoop(context.Background(), loadgen.ClosedLoopConfig{
			Checker:     checker,
			Keys:        gen,
			Concurrency: *c,
			Requests:    *n,
			Duration:    *duration,
			TrackSeries: *series,
		})
	}

	fmt.Printf("Endpoint:            http://%s%s\n", *endpoint, "/qos")
	fmt.Printf("Key population:      %s\n", *keys)
	fmt.Printf("Time taken:          %.3f s\n", res.Elapsed.Seconds())
	fmt.Printf("Complete requests:   %d\n", res.Accepted+res.Rejected)
	fmt.Printf("Failed requests:     %d\n", res.Errors)
	fmt.Printf("Accepted (TRUE):     %d\n", res.Accepted)
	fmt.Printf("Rejected (FALSE):    %d\n", res.Rejected)
	fmt.Printf("Requests per second: %.1f\n", res.Throughput())
	s := res.Latency.Snapshot()
	fmt.Printf("Latency: mean=%v p50=%v p90=%v p99=%v p99.9=%v max=%v\n",
		time.Duration(int64(s.Mean)).Round(time.Microsecond),
		time.Duration(s.P50).Round(time.Microsecond),
		time.Duration(s.P90).Round(time.Microsecond),
		time.Duration(s.P99).Round(time.Microsecond),
		time.Duration(s.P999).Round(time.Microsecond),
		time.Duration(s.Max).Round(time.Microsecond))
	if *series && res.AcceptedSeries != nil {
		acc, rej := res.AcceptedSeries.Values(), res.RejectedSeries.Values()
		fmt.Println("sec\taccepted\trejected")
		for i := range acc {
			r := 0.0
			if i < len(rej) {
				r = rej[i]
			}
			fmt.Printf("%d\t%.0f\t%.0f\n", i, acc[i], r)
		}
	}
	if res.Errors > 0 {
		os.Exit(1)
	}
}

// runScenario replays one named scenario from the regression suite outside
// the test harness — for calibrating SLO budgets and eyeballing a change's
// effect before `make scenarios` renders a verdict. The full report is
// printed as JSON; the exit code is the SLO verdict.
func runScenario(name, tier string, seed int64, long bool) {
	if name == "list" {
		for _, sc := range scenario.All() {
			fmt.Printf("%-14s %s\n", sc.Name, sc.Desc)
		}
		return
	}
	sc, err := scenario.Get(name)
	if err != nil {
		log.Fatal(err)
	}
	var rep scenario.Report
	switch tier {
	case "des":
		rep = scenario.RunDES(sc, seed)
	case "real":
		rep, err = scenario.RunReal(context.Background(), sc, seed, long)
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown tier %q (want des or real)", tier)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
	if !rep.SLOPass {
		os.Exit(1)
	}
}
