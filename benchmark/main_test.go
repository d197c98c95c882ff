package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
)

// childEnv turns this test binary into the benchmark binary: child() execs
// os.Executable(), which under `go test` is the test binary itself.
const childEnv = "JANUS_BENCHMARK_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestContractMatchesTables fails when BENCHMARK.json and the tables the
// program reports from drift apart.
func TestContractMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkDef := func(where, n, u, better string) {
		if !name.MatchString(n) || !unit.MatchString(u) || (better != "lower" && better != "higher") {
			t.Errorf("%s: malformed metric %q unit %q better %q", where, n, u, better)
		}
		if seen[n] {
			t.Errorf("%s: name %q used twice", where, n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q / %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
		checkDef("workloads", w.name, "count", "lower")
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, program %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		checkDef("end_to_end", d.Name, d.Unit, d.Better)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, program %+v", i, got, d)
		}
		checkDef("per_layer", d.Name, d.Unit, d.Better)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Command) == 0 {
		t.Errorf("paths %v, run_seconds %d, command %v", doc.Paths, doc.RunSeconds, doc.Command)
	}
}

// TestSmoke runs every workload through the child-process path at toy size,
// both result kinds, and checks that each named metric arrives with its
// unit and that nothing failed verification.
func TestSmoke(t *testing.T) {
	if err := os.Setenv(childEnv, "1"); err != nil { // t.Setenv forbids parallel subtests
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Unsetenv(childEnv) })
	o := options{seed: 1, seconds: 1, windows: 2, ops: 200, setups: 1, resident: 1000}
	for i := range workloads {
		w := &workloads[i]
		for traced, defs := range [][]metricDef{endToEnd, perLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, traced), func(t *testing.T) {
				t.Parallel()
				r, _, err := child(w.name, o, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < int64(o.windows*o.ops*loadConns) {
					t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: present=%v unit %q, want %q", d.Name, ok, m.Unit, d.Unit)
					}
				}
				if traced == 0 && r.Metrics["ok_frac"].Value != 1 {
					t.Errorf("ok_frac %v", r.Metrics["ok_frac"].Value)
				}
				if traced == 1 && r.Metrics["failed_frac"].Value != 0 {
					t.Errorf("failed_frac %v", r.Metrics["failed_frac"].Value)
				}
			})
		}
	}
}
