package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// benchCollector accumulates every run's report; when the suite passes and
// JANUS_SCENARIOS_JSON names a path, TestMain writes the report document
// there — that is how `make scenarios` refreshes SCENARIOS_SLO.json.
var benchCollector Collector

func collect(r Report) { benchCollector.Add(r) }

func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("JANUS_SCENARIOS_JSON"); path != "" && code == 0 {
		b := Bench{
			Suite:   "scenarios",
			Command: "JANUS_SCENARIOS_JSON=<path> [JANUS_SCENARIOS_REAL=1] go test ./internal/scenario/",
			GOOS:    runtime.GOOS,
			GOARCH:  runtime.GOARCH,
			Date:    time.Now().UTC().Format(time.RFC3339),
			Acceptance: []string{
				"every scenario passes its per-tier SLO budget (slo_pass=true)",
				"DES tier deterministic per seed",
				"flash-crowd provokes >=1 scaled-out followed by >=1 scaled-in",
				"real tier: zero FIFO-full drops and audit verdict ok under CoDel",
			},
			Notes: "DES tier always runs; real-cluster tier requires JANUS_SCENARIOS_REAL=1 (nightly adds JANUS_SCENARIO_BUDGET=long)",
		}
		if err := benchCollector.writeJSON(path, b); err != nil {
			fmt.Fprintf(os.Stderr, "scenario: writing %s: %v\n", path, err)
			code = 1
		}
	}
	os.Exit(code)
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

// writeJSON renders the Bench document (header fields supplied by the
// caller, which knows the date and platform) to path, indented.
func (c *Collector) writeJSON(path string, b Bench) error {
	c.mu.Lock()
	b.Scenarios = append([]Report(nil), c.reports...)
	c.mu.Unlock()
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
