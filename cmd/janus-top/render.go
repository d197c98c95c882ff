package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/promtext"
	"repro/internal/textplot"
)

// nodeView is one node's scrape for one poll cycle.
type nodeView struct {
	Target string
	Tier   string // lb | router | qos | coordinator | ? (by exported families)
	Err    string // scrape failure; all other fields are zero when set
	M      promtext.Metrics
	Audit  *audit.Report // nil when the node has no /debug/audit
}

// tierOf classifies a scrape by the metric families only that daemon
// exports. Order matters for hybrids in tests: a scrape is the lowest tier
// whose signature family it carries.
func tierOf(m promtext.Metrics) string {
	switch {
	case m.Has("janus_lb_requests_total"):
		return "lb"
	case m.Has("janus_router_requests_total"):
		return "router"
	case m.Has("janus_qos_received_total"):
		return "qos"
	case m.Has("janus_coordinator_epoch"):
		return "coordinator"
	}
	return "?"
}

// throughputFamily is the per-tier counter whose rate is "work done": what
// the paper's evaluation plots per tier.
func throughputFamily(tier string) string {
	switch tier {
	case "lb":
		return "janus_lb_requests_total"
	case "router":
		return "janus_router_requests_total"
	case "qos":
		return "janus_qos_decisions_total"
	}
	return ""
}

// rate computes delta(name)/elapsed between two polls of the same node,
// reporting false on the first poll or when the family is absent.
func rate(cur, prev nodeView, name string, elapsed time.Duration, labels ...promtext.Label) (float64, bool) {
	if elapsed <= 0 {
		return 0, false
	}
	c, okC := cur.M.Value(name, labels...)
	p, okP := prev.M.Value(name, labels...)
	if !okC || !okP || c < p {
		return 0, false
	}
	return (c - p) / elapsed.Seconds(), true
}

// render draws one console frame: per-tier throughput, QoS sojourn
// decomposition, audit verdicts, and epoch skew. prev maps
// target → last poll's view ("" rates on the first frame). Pure function of
// its inputs so the frame is unit-testable.
func render(cur []nodeView, prev map[string]nodeView, elapsed time.Duration, width int) string {
	var sb strings.Builder
	tiers := map[string]int{}
	for _, n := range cur {
		if n.Err == "" {
			tiers[n.Tier]++
		}
	}
	fmt.Fprintf(&sb, "janus-top — %d node(s)", len(cur))
	for _, t := range []string{"lb", "router", "qos", "coordinator"} {
		if tiers[t] > 0 {
			fmt.Fprintf(&sb, "  %s=%d", t, tiers[t])
		}
	}
	sb.WriteString("\n\n")

	// Tier throughput: delta of each tier's work counter over the poll.
	var bars []textplot.Bar
	for _, n := range cur {
		fam := throughputFamily(n.Tier)
		if n.Err != "" || fam == "" {
			continue
		}
		if r, ok := rate(n, prev[n.Target], fam, elapsed); ok {
			bars = append(bars, textplot.Bar{Label: n.Tier + " " + n.Target, Value: r})
		}
	}
	if len(bars) > 0 {
		sb.WriteString("throughput (req/s)\n")
		sb.WriteString(textplot.BarChart(bars, width, ""))
		sb.WriteString("\n")
	}

	// Per-stage sojourn on each QoS server: where time goes inside the node.
	wroteSojourn := false
	for _, n := range cur {
		if n.Err != "" || n.Tier != "qos" {
			continue
		}
		if !wroteSojourn {
			sb.WriteString("qos sojourn              p50        p99   (queue/decide/send p99)\n")
			wroteSojourn = true
		}
		p50, _ := n.M.Value("janus_qos_sojourn_seconds",
			promtext.Label{Key: "stage", Value: "total"}, promtext.Label{Key: "quantile", Value: "0.5"})
		p99, _ := n.M.Value("janus_qos_sojourn_seconds",
			promtext.Label{Key: "stage", Value: "total"}, promtext.Label{Key: "quantile", Value: "0.99"})
		fmt.Fprintf(&sb, "  %-20s %9s  %9s  ", n.Target, fmtSeconds(p50), fmtSeconds(p99))
		var parts []string
		for _, stage := range []string{"queue", "decide", "send"} {
			v, _ := n.M.Value("janus_qos_sojourn_seconds",
				promtext.Label{Key: "stage", Value: stage}, promtext.Label{Key: "quantile", Value: "0.99"})
			parts = append(parts, fmtSeconds(v))
		}
		sb.WriteString(strings.Join(parts, "/") + "\n")
	}
	if wroteSojourn {
		sb.WriteString("\n")
	}

	// Audit verdicts: conservation status of every node running a ledger.
	wroteAudit := false
	for _, n := range cur {
		if n.Err != "" || n.Audit == nil {
			continue
		}
		if !wroteAudit {
			sb.WriteString("audit\n")
			wroteAudit = true
		}
		fmt.Fprintf(&sb, "  %-20s %-9s buckets=%d admitted=%.0f", n.Target, n.Audit.Verdict, n.Audit.Buckets, n.Audit.Admitted)
		for i, o := range n.Audit.Overspent {
			if i == 3 {
				fmt.Fprintf(&sb, " …+%d", len(n.Audit.Overspent)-i)
				break
			}
			fmt.Fprintf(&sb, " %s(+%.1f)", o.Key, o.Over)
		}
		sb.WriteString("\n")
	}
	if wroteAudit {
		sb.WriteString("\n")
	}

	// Epoch skew: a router lagging the coordinator's epoch is routing on an
	// old view — exactly the staleness /readyz trips on.
	type epochAt struct {
		target string
		epoch  float64
	}
	var epochs []epochAt
	for _, n := range cur {
		if n.Err != "" {
			continue
		}
		if v, ok := n.M.Value("janus_coordinator_epoch"); ok {
			epochs = append(epochs, epochAt{n.Target + " (coordinator)", v})
		}
		if v, ok := n.M.Value("janus_router_view_epoch"); ok {
			epochs = append(epochs, epochAt{n.Target, v})
		}
	}
	if len(epochs) > 0 {
		lo, hi := epochs[0].epoch, epochs[0].epoch
		for _, e := range epochs[1:] {
			if e.epoch < lo {
				lo = e.epoch
			}
			if e.epoch > hi {
				hi = e.epoch
			}
		}
		fmt.Fprintf(&sb, "view epochs (skew %g)\n", hi-lo)
		sort.Slice(epochs, func(i, j int) bool { return epochs[i].target < epochs[j].target })
		for _, e := range epochs {
			mark := ""
			if e.epoch < hi {
				mark = "  ← behind"
			}
			fmt.Fprintf(&sb, "  %-34s epoch %g%s\n", e.target, e.epoch, mark)
		}
		sb.WriteString("\n")
	}

	for _, n := range cur {
		if n.Err != "" {
			fmt.Fprintf(&sb, "scrape error: %s: %s\n", n.Target, n.Err)
		}
	}
	return sb.String()
}

// fmtSeconds renders a duration-in-seconds sample at display precision.
func fmtSeconds(v float64) string {
	switch {
	case v <= 0:
		return "-"
	case v < 1e-3:
		return fmt.Sprintf("%.0fµs", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.1fms", v*1e3)
	default:
		return fmt.Sprintf("%.2fs", v)
	}
}
