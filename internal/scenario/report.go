package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// ScaleEvent is one autoscale action in a run's trace, in virtual (DES) or
// wall (real) seconds since run start.
type ScaleEvent struct {
	AtSeconds float64 `json:"at_seconds"`
	Decision  string  `json:"decision"`
	Capacity  int     `json:"capacity"`
}

// Report is the machine-readable outcome of one scenario run — the record
// appended to SCENARIOS_SLO.json and checked against the scenario's SLO.
type Report struct {
	Scenario        string  `json:"scenario"`
	Tier            string  `json:"tier"` // "des" or "real"
	Seed            int64   `json:"seed"`
	DurationSeconds float64 `json:"duration_seconds"`

	Requests int64 `json:"requests"`
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	// Degraded counts requests answered by shedding (CoDel degraded
	// replies in the real tier; a full router waiting room in the DES).
	Degraded int64 `json:"degraded"`
	// Dropped counts requests LOST (real tier FIFO-full datagram loss);
	// with CoDel active the budget for this is zero.
	Dropped int64 `json:"dropped"`
	Errors  int64 `json:"errors"`

	// AdmitOverBound is admission accuracy against the paper's C + r·t
	// conservation bound: the worst per-key ratio in the DES (each key's
	// bucket decisions), the aggregate ratio in the real tier (the
	// per-key oracle there is the server's own audit ledger). Accurate
	// admission keeps it at or below 1.
	AdmitOverBound float64 `json:"admit_over_bound"`
	// HotKeyUtilization is the mean admitted/bound over keys whose demand
	// met or exceeded their bound — how much of the entitled rate hot
	// keys actually received (DES tier only).
	HotKeyUtilization float64 `json:"hot_key_utilization,omitempty"`

	// P50SojournMs and P99SojournMs are the QoS server's intake sojourn
	// in the real tier and client end-to-end latency in the DES.
	P50SojournMs float64 `json:"p50_sojourn_ms"`
	P99SojournMs float64 `json:"p99_sojourn_ms"`

	ScaledOut    int          `json:"scaled_out"`
	ScaledIn     int          `json:"scaled_in"`
	FinalRouters int          `json:"final_routers"`
	ScaleEvents  []ScaleEvent `json:"scale_events,omitempty"`

	AuditVerdict string `json:"audit_verdict,omitempty"`

	SLOPass    bool     `json:"slo_pass"`
	Violations []string `json:"violations,omitempty"`
}

// SLO is a per-scenario budget. Zero-valued fields are not checked, except
// the booleans, which opt specific requirements in.
type SLO struct {
	// MaxAdmitOverBound caps AdmitOverBound (admission accuracy).
	MaxAdmitOverBound float64
	// MinHotUtilization floors HotKeyUtilization.
	MinHotUtilization float64
	// MaxDegradedFrac caps Degraded/Requests.
	MaxDegradedFrac float64
	// MaxErrorFrac caps Errors/Requests.
	MaxErrorFrac float64
	// MaxP99SojournMs caps the p99 sojourn.
	MaxP99SojournMs float64
	// MinScaledOut / MinScaledIn floor the autoscale event counts.
	MinScaledOut int
	MinScaledIn  int
	// RequireOutBeforeIn asserts the first ScaledOut precedes the last
	// ScaledIn — the crowd-then-recovery sequence.
	RequireOutBeforeIn bool
	// RequireZeroDrops asserts no FIFO-full datagram loss.
	RequireZeroDrops bool
	// RequireAuditOK asserts the server-side audit verdict is "ok".
	RequireAuditOK bool
}

// Check applies the budget to r, records the outcome on the report, and
// returns the violations (nil when the run passes).
func (s SLO) Check(r *Report) []string {
	var v []string
	frac := func(n int64) float64 {
		if r.Requests == 0 {
			return 0
		}
		return float64(n) / float64(r.Requests)
	}
	if s.MaxAdmitOverBound > 0 && r.AdmitOverBound > s.MaxAdmitOverBound {
		v = append(v, fmt.Sprintf("admit_over_bound %.3f > %.3f", r.AdmitOverBound, s.MaxAdmitOverBound))
	}
	if s.MinHotUtilization > 0 && r.HotKeyUtilization < s.MinHotUtilization {
		v = append(v, fmt.Sprintf("hot_key_utilization %.3f < %.3f", r.HotKeyUtilization, s.MinHotUtilization))
	}
	if s.MaxDegradedFrac > 0 && frac(r.Degraded) > s.MaxDegradedFrac {
		v = append(v, fmt.Sprintf("degraded_frac %.3f > %.3f", frac(r.Degraded), s.MaxDegradedFrac))
	}
	if s.MaxErrorFrac > 0 && frac(r.Errors) > s.MaxErrorFrac {
		v = append(v, fmt.Sprintf("error_frac %.3f > %.3f", frac(r.Errors), s.MaxErrorFrac))
	}
	if s.MaxP99SojournMs > 0 && r.P99SojournMs > s.MaxP99SojournMs {
		v = append(v, fmt.Sprintf("p99_sojourn %.1fms > %.1fms", r.P99SojournMs, s.MaxP99SojournMs))
	}
	if s.MinScaledOut > 0 && r.ScaledOut < s.MinScaledOut {
		v = append(v, fmt.Sprintf("scaled_out %d < %d", r.ScaledOut, s.MinScaledOut))
	}
	if s.MinScaledIn > 0 && r.ScaledIn < s.MinScaledIn {
		v = append(v, fmt.Sprintf("scaled_in %d < %d", r.ScaledIn, s.MinScaledIn))
	}
	if s.RequireOutBeforeIn {
		firstOut, lastIn := -1, -1
		for i, ev := range r.ScaleEvents {
			if ev.Decision == "scaled-out" && firstOut < 0 {
				firstOut = i
			}
			if ev.Decision == "scaled-in" {
				lastIn = i
			}
		}
		if firstOut < 0 || lastIn < 0 || firstOut > lastIn {
			v = append(v, "scale sequence missing out-before-in")
		}
	}
	if s.RequireZeroDrops && r.Dropped != 0 {
		v = append(v, fmt.Sprintf("dropped %d != 0", r.Dropped))
	}
	if s.RequireAuditOK && r.AuditVerdict != "ok" {
		v = append(v, fmt.Sprintf("audit verdict %q", r.AuditVerdict))
	}
	r.Violations = v
	r.SLOPass = len(v) == 0
	return v
}

// Bench is the on-disk SCENARIOS_SLO.json document.
type Bench struct {
	Suite      string   `json:"suite"`
	Command    string   `json:"command"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Date       string   `json:"date"`
	Acceptance []string `json:"acceptance"`
	Notes      string   `json:"notes"`
	Scenarios  []Report `json:"scenarios"`
}

// Collector accumulates reports across scenario runs for a single Bench
// document; safe for concurrent Add.
type Collector struct {
	mu      sync.Mutex
	reports []Report
}

// Add appends one run's report.
func (c *Collector) Add(r Report) {
	c.mu.Lock()
	c.reports = append(c.reports, r)
	c.mu.Unlock()
}

// Reports returns a copy of what has been collected.
func (c *Collector) Reports() []Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Report(nil), c.reports...)
}

// WriteJSON renders the Bench document (header fields supplied by the
// caller, which knows the date and platform) to path, indented.
func (c *Collector) WriteJSON(path string, b Bench) error {
	b.Scenarios = c.Reports()
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
