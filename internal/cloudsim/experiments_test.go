package cloudsim

import (
	"sync"
	"testing"
)

// The experiment tests assert the paper's qualitative findings — the
// "shape" reproduction targets of EXPERIMENTS.md.

// sweeps is one layer's two scaling series. A run is deterministic per seed
// (TestDeterministicResults), so each compare experiment — which is its
// vertical and its horizontal figure back to back — runs once per test
// binary and the three tests of that layer assert on the same points.
type sweeps struct{ vertical, horizontal []ScalePoint }

func shared(compare func(seed int64) (v, h []ScalePoint, err error)) func(*testing.T) sweeps {
	run := sync.OnceValues(func() (sweeps, error) {
		v, h, err := compare(1)
		return sweeps{v, h}, err
	})
	return func(t *testing.T) sweeps {
		t.Helper()
		s, err := run()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

var (
	routerSweeps = shared(Fig9RouterCompare)  // Fig 7 vertical, Fig 8 horizontal
	serverSweeps = shared(Fig12ServerCompare) // Fig 10 vertical, Fig 11 horizontal
)

func TestFig7ThroughputGrowsWithInstanceSize(t *testing.T) {
	pts := routerSweeps(t).vertical
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
	pts := routerSweeps(t).horizontal
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
	v, h := s.vertical, s.horizontal
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
	pts := serverSweeps(t).vertical
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
	pts := serverSweeps(t).horizontal
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
	v, h := s.vertical, s.horizontal
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
	pts, err := LatencyUnderLoad(1, []float64{0.2, 0.6, 0.95})
	if err != nil {
		t.Fatal(err)
	}
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

func TestHeadline(t *testing.T) {
	res, err := Headline(1)
	if err != nil {
		t.Fatal(err)
	}
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
