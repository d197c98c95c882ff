package scenario

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"
)

// desSeed is the canonical suite seed; JANUS_SCENARIO_SEED overrides it.
func desSeed(t testing.TB) int64 {
	if v := os.Getenv("JANUS_SCENARIO_SEED"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad JANUS_SCENARIO_SEED %q: %v", v, err)
		}
		return s
	}
	return 1
}

// suiteReports holds each scenario's DES report at the suite seed: every
// test below asserts on the same run. Tests run one at a time, and t.Run
// orders each subtest after the last.
var suiteReports = map[string]Report{}

func suiteRun(t *testing.T, sc Scenario) Report {
	rep, ok := suiteReports[sc.Name]
	if !ok {
		rep = RunDES(sc, desSeed(t))
		suiteReports[sc.Name] = rep
		collect(rep)
	}
	return rep
}

// TestDESScenariosMeetSLO is the fast CI gate: every named scenario runs
// its DES tier at millions-of-users scale and must pass its SLO budget.
func TestDESScenariosMeetSLO(t *testing.T) {
	for _, sc := range All() {
		t.Run(sc.Name, func(t *testing.T) {
			rep := suiteRun(t, sc)
			t.Logf("%s/des: req=%d admit=%d reject=%d degraded=%d over=%.3f hot=%.3f p99=%.1fms out=%d in=%d routers=%d",
				sc.Name, rep.Requests, rep.Admitted, rep.Rejected, rep.Degraded,
				rep.AdmitOverBound, rep.HotKeyUtilization, rep.P99SojournMs,
				rep.ScaledOut, rep.ScaledIn, rep.FinalRouters)
			if !rep.SLOPass {
				t.Errorf("SLO violations: %v", rep.Violations)
			}
			if rep.Requests == 0 {
				t.Fatal("scenario generated no load")
			}
		})
	}
}

// TestDESDeterministicPerSeed asserts the DES tier's reproducibility
// contract for every scenario: the same seed yields byte-identical reports,
// and a different seed yields a different trace.
func TestDESDeterministicPerSeed(t *testing.T) {
	seed := desSeed(t)
	for _, sc := range All() {
		a, _ := json.Marshal(suiteRun(t, sc))
		b, _ := json.Marshal(RunDES(sc, seed))
		if string(a) != string(b) {
			t.Errorf("%s: same seed produced different reports:\n%s\n%s", sc.Name, a, b)
		}
		c, _ := json.Marshal(RunDES(sc, seed+1))
		if string(a) == string(c) {
			t.Errorf("%s: different seeds produced identical reports", sc.Name)
		}
	}
}

// TestDESFlashCrowdScaleSequence pins the acceptance criterion explicitly:
// the flash crowd provokes at least one ScaledOut followed by at least one
// ScaledIn, in that order.
func TestDESFlashCrowdScaleSequence(t *testing.T) {
	sc, err := Get("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	rep := suiteRun(t, sc)
	if rep.ScaledOut < 1 || rep.ScaledIn < 1 {
		t.Fatalf("scale events out=%d in=%d, want >=1 each (trace %+v)",
			rep.ScaledOut, rep.ScaledIn, rep.ScaleEvents)
	}
	firstOut, lastIn := -1, -1
	for i, ev := range rep.ScaleEvents {
		if ev.Decision == "scaled-out" && firstOut < 0 {
			firstOut = i
		}
		if ev.Decision == "scaled-in" {
			lastIn = i
		}
	}
	if firstOut > lastIn {
		t.Fatalf("scale-in preceded every scale-out: %+v", rep.ScaleEvents)
	}
}

func TestGetUnknownScenario(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if len(Names()) < 5 {
		t.Fatalf("registry too small: %v", Names())
	}
}
