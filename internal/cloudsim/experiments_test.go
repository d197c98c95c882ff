package cloudsim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The experiment tests assert the paper's qualitative findings — the
// "shape" reproduction targets of EXPERIMENTS.md.

// A run is deterministic per seed (TestDeterministicResults), so each
// experiment runs once per test binary at seed 1: the shape tests and
// TestPaperFiguresMatchGolden assert on the same points.

// sweeps is one layer's two scaling series.
type sweeps struct{ Vertical, Horizontal []ScalePoint }

// skewPoint is one DNSTTLSkew result.
type skewPoint struct {
	Routers, Machines, Active int
	Throughput                float64
}

// shared runs experiment once and hands every caller its result.
func shared[T any](experiment func() (T, error)) func(*testing.T) T {
	run := sync.OnceValues(experiment)
	return func(t *testing.T) T {
		t.Helper()
		v, err := run()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

func compare(fig func(seed int64) (v, h []ScalePoint, err error)) func() (sweeps, error) {
	return func() (sweeps, error) {
		v, h, err := fig(1)
		return sweeps{v, h}, err
	}
}

var (
	routerSweeps = shared(compare(Fig9RouterCompare))  // Fig 7 vertical, Fig 8 horizontal
	serverSweeps = shared(compare(Fig12ServerCompare)) // Fig 10 vertical, Fig 11 horizontal
	headline     = shared(func() (HeadlineResult, error) { return Headline(1) })
	latencyCurve = shared(func() ([]LoadPoint, error) { return LatencyUnderLoad(1, []float64{0.2, 0.6, 0.95}) })
	dnsSkew      = shared(func() ([]skewPoint, error) {
		var out []skewPoint
		for _, c := range [][2]int{{8, 3}, {4, 64}} {
			active, tput, err := DNSTTLSkew(c[0], c[1], 1)
			if err != nil {
				return nil, err
			}
			out = append(out, skewPoint{c[0], c[1], active, tput})
		}
		return out, nil
	})
)

// TestPaperFiguresMatchGolden holds every figure Run produces for the paper
// to its bytes at seed 1, as json.MarshalIndent prints it: a change to the
// engine or to Run's inputs must not move a figure.
func TestPaperFiguresMatchGolden(t *testing.T) {
	for _, fig := range []struct {
		name string
		get  func(*testing.T) any
	}{
		{"fig9", func(t *testing.T) any { return routerSweeps(t) }},
		{"fig12", func(t *testing.T) any { return serverSweeps(t) }},
		{"headline", func(t *testing.T) any { return headline(t) }},
		{"latency", func(t *testing.T) any { return latencyCurve(t) }},
		{"dnsskew", func(t *testing.T) any { return dnsSkew(t) }},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", fig.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(fig.get(t), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got = append(got, '\n'); !bytes.Equal(got, want) {
			t.Errorf("%s differs from testdata/%s.json; got:\n%s", fig.name, fig.name, got)
		}
	}
}

func TestFig7ThroughputGrowsWithInstanceSize(t *testing.T) {
	pts := routerSweeps(t).Vertical
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Throughput <= pts[i-1].Throughput*1.05 && pts[i-1].Throughput < 80000 {
			t.Errorf("no growth from %s (%.0f) to %s (%.0f)",
				pts[i-1].Label, pts[i-1].Throughput, pts[i].Label, pts[i].Throughput)
		}
	}
	// Small routers deplete their CPU (Fig 7b).
	if pts[0].RouterCPU < 0.9 {
		t.Errorf("c3.large router CPU = %.2f, want ~1", pts[0].RouterCPU)
	}
	// QoS CPU rises as the router layer gets bigger.
	if pts[4].QoSCPU <= pts[0].QoSCPU {
		t.Errorf("QoS CPU did not rise: %.2f -> %.2f", pts[0].QoSCPU, pts[4].QoSCPU)
	}
}

func TestFig8LinearThenSaturates(t *testing.T) {
	pts := routerSweeps(t).Horizontal
	if len(pts) != 10 {
		t.Fatalf("points = %d", len(pts))
	}
	// Linear region: 1 -> 4 nodes roughly 4x.
	ratio := pts[3].Throughput / pts[0].Throughput
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("1->4 node scaling = %.2fx", ratio)
	}
	// Saturation: 10 nodes barely above 8 nodes (QoS server bottleneck).
	if gain := pts[9].Throughput / pts[7].Throughput; gain > 1.1 {
		t.Errorf("no saturation past 8 nodes: gain %.2fx", gain)
	}
	// Saturated near the c3.8xlarge QoS capacity (~90k).
	if pts[9].Throughput < 80000 || pts[9].Throughput > 100000 {
		t.Errorf("plateau at %.0f, want ~90k", pts[9].Throughput)
	}
	// Per-node router CPU decreases with more nodes (Fig 8b).
	if pts[9].RouterCPU >= pts[0].RouterCPU {
		t.Errorf("router CPU did not fall: %.2f -> %.2f", pts[0].RouterCPU, pts[9].RouterCPU)
	}
}

func TestFig9VerticalMatchesHorizontalForRouter(t *testing.T) {
	s := routerSweeps(t)
	v, h := s.Vertical, s.Horizontal
	// Compare at equal vCPUs where both exist and neither is saturated:
	// vertical c3.2xlarge (8 vCPU) vs horizontal 2 × c3.xlarge (8 vCPU).
	var vt, ht float64
	for _, p := range v {
		if p.VCPUs == 8 {
			vt = p.Throughput
		}
	}
	for _, p := range h {
		if p.VCPUs == 8 {
			ht = p.Throughput
		}
	}
	if vt == 0 || ht == 0 {
		t.Fatal("missing 8-vCPU points")
	}
	if diff := (vt - ht) / ht; diff < -0.1 || diff > 0.1 {
		t.Fatalf("vertical %.0f vs horizontal %.0f (%.1f%%)", vt, ht, diff*100)
	}
}

func TestFig10ServerVerticalGrows(t *testing.T) {
	pts := serverSweeps(t).Vertical
	for i := 1; i < len(pts); i++ {
		if pts[i].Throughput <= pts[i-1].Throughput {
			t.Errorf("no growth from %s to %s", pts[i-1].Label, pts[i].Label)
		}
	}
	// Fig 10b: CPU under-utilization on the QoS layer even at saturation.
	for _, p := range pts {
		if p.QoSCPU > 0.9 {
			t.Errorf("%s: QoS CPU %.2f, want < 0.9 (under-utilization)", p.Label, p.QoSCPU)
		}
	}
	// Router layer (5 × c3.8xlarge) is over-provisioned: low CPU.
	if pts[0].RouterCPU > 0.5 {
		t.Errorf("router CPU = %.2f, want low", pts[0].RouterCPU)
	}
}

func TestFig11LinearAndHeadline(t *testing.T) {
	pts := serverSweeps(t).Horizontal
	// Linear: 1 -> 8 nodes roughly 8x.
	ratio := pts[7].Throughput / pts[0].Throughput
	if ratio < 7 || ratio > 9 {
		t.Errorf("1->8 node scaling = %.2fx", ratio)
	}
	// Headline: > 100k req/s at 10 nodes.
	if pts[9].Throughput <= 100000 {
		t.Errorf("10-node throughput = %.0f, want > 100000", pts[9].Throughput)
	}
	// QoS per-node CPU roughly constant (each node saturated), router CPU
	// rises with total traffic (Fig 11b).
	if pts[9].RouterCPU <= pts[0].RouterCPU {
		t.Errorf("router CPU did not rise: %.2f -> %.2f", pts[0].RouterCPU, pts[9].RouterCPU)
	}
}

func TestFig12VerticalSlightlyBeatsHorizontal(t *testing.T) {
	s := serverSweeps(t)
	v, h := s.Vertical, s.Horizontal
	// Compare 32 vCPUs: vertical c3.8xlarge vs horizontal 8 × c3.xlarge.
	var vt, ht float64
	for _, p := range v {
		if p.VCPUs == 32 {
			vt = p.Throughput
		}
	}
	for _, p := range h {
		if p.VCPUs == 32 {
			ht = p.Throughput
		}
	}
	if vt == 0 || ht == 0 {
		t.Fatal("missing 32-vCPU points")
	}
	if vt <= ht {
		t.Fatalf("vertical %.0f <= horizontal %.0f, paper says vertical slightly higher", vt, ht)
	}
	if vt > ht*1.15 {
		t.Fatalf("vertical advantage too big: %.0f vs %.0f", vt, ht)
	}
	// But horizontal scales past the biggest instance: 10 nodes beat one
	// c3.8xlarge.
	if h[len(h)-1].Throughput <= vt {
		t.Fatal("horizontal cannot exceed the biggest instance")
	}
}

func TestLatencyUnderLoad(t *testing.T) {
	pts := latencyCurve(t)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Completed ≈ offered below saturation.
	for _, p := range pts[:2] {
		if diff := (p.Throughput - p.OfferedRate) / p.OfferedRate; diff < -0.05 || diff > 0.05 {
			t.Errorf("util %.0f%%: throughput %.0f vs offered %.0f", p.Utilization*100, p.Throughput, p.OfferedRate)
		}
	}
	// Latency grows monotonically with load.
	if !(pts[0].P90MS <= pts[1].P90MS && pts[1].P90MS <= pts[2].P90MS) {
		t.Errorf("P90 not monotone: %.2f %.2f %.2f", pts[0].P90MS, pts[1].P90MS, pts[2].P90MS)
	}
	// Within the paper's envelope at moderate load.
	if pts[1].P90MS > 3 {
		t.Errorf("P90 at 60%% load = %.2fms, want <= 3ms", pts[1].P90MS)
	}
	// Low-load latency is about the network round trip (~1.2-1.5ms).
	if pts[0].MeanMS < 0.8 || pts[0].MeanMS > 3 {
		t.Errorf("low-load mean = %.2fms, implausible", pts[0].MeanMS)
	}
}

// TestLatencyUnderLoadRejectsNonPositiveUtilization: no offered load is not
// a point on the curve, and must not fall back to the closed-loop fleet.
func TestLatencyUnderLoadRejectsNonPositiveUtilization(t *testing.T) {
	for _, u := range []float64{0, -0.2} {
		if pts, err := LatencyUnderLoad(1, []float64{u, 0.2}); err == nil {
			t.Errorf("utilization %v accepted: %+v", u, pts)
		}
	}
}

func TestHeadline(t *testing.T) {
	res := headline(t)
	if res.Throughput <= 100000 {
		t.Fatalf("headline throughput = %.0f, want > 100k", res.Throughput)
	}
	if res.QoSNodes != 10 || res.QoSVCPUs != 40 {
		t.Fatalf("config = %+v", res)
	}
	// Decisions are fast: P90 well under the paper's 3ms envelope.
	if res.P90LatencyMS > 3 {
		t.Fatalf("P90 latency = %.2fms, want <= 3ms", res.P90LatencyMS)
	}
}
