package main

import (
	"fmt"
)

// rawTwins are shown under each workload's gated rows: what the same runs
// looked like before calibration, and the stub RTT they saw.
var rawTwins = []string{"raw.throughput_rps", "raw.check_p50_us", "raw.check_p99_us", "calib.http_rtt_us"}

// runSelfcheck is the "two sets agree" criterion as a tool: it makes two
// sets of n end-to-end runs per workload (all of them, or only the one
// named), every run on its own seed, and
// compares what a later change will be held to. For every metric × workload
// it prints both set medians, how much worse the second is than the first,
// each set's spread (interquartile distance over median, the driver's
// definition) and the declared bound, and fails when the second median is
// worse by more than the bound or, setup_s excepted, a spread exceeds it. The
// uncalibrated twins follow each workload for comparison; nothing is held to
// them.
func runSelfcheck(o options, n int, only string) error {
	breaches := 0
	fmt.Printf("%-14s %-24s %14s %14s %9s %9s %9s %9s\n", "workload", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound")
	for i := range workloads {
		w := &workloads[i]
		if only != "" && only != w.name {
			continue
		}
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for run := range n {
				ro := o
				ro.seed = o.seed + int64(s*n+run)
				r, shown, err := child(w.name, ro, 0)
				if err != nil {
					return err
				}
				if !r.Correct {
					// Say what the stack reported, or the run cannot be told
					// from a wrong verdict.
					for _, c := range []string{"qosserver.degraded", "qosserver.dropped", "router.timeouts", "router.default_replies", "transport.timeouts_per_check"} {
						fmt.Printf("%-14s %-34s %14.6f\n", w.name, c, shown[c])
					}
					return fmt.Errorf("%s seed %d: %d of %d: %w", w.name, ro.seed, r.Failed, r.Attempted, errFailedChecks)
				}
				for name, m := range r.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
				for _, name := range rawTwins {
					sets[s][name] = append(sets[s][name], shown[name])
				}
			}
		}
		for _, d := range endToEnd {
			a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(sets[0][d.Name]), spread(sets[1][d.Name])
			verdict := ""
			if worse > d.Bound || (d.Name != "setup_s" && max(sa, sb) > d.Bound) {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Printf("%-14s %-24s %14.4f %14.4f %+8.2f%% %8.2f%% %8.2f%% %8.4f%%%s\n",
				w.name, d.Name, a, b, 100*worse, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
		for _, name := range rawTwins {
			fmt.Printf("%-14s %-24s %14.4f %14.4f %9s %8.2f%% %8.2f%%\n", w.name, name,
				median(sets[0][name]), median(sets[1][name]), "", 100*spread(sets[0][name]), 100*spread(sets[1][name]))
		}
	}
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d metric x workload pairs outside their bounds", breaches)
	}
	return nil
}
