package cloudsim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

func shortCfg(clients int) RunConfig {
	return RunConfig{Clients: clients, Duration: 2 * time.Second, Warmup: 500 * time.Millisecond, Seed: 1}
}

func TestRunValidatesDeployment(t *testing.T) {
	if _, err := Run(Deployment{}, shortCfg(10)); err == nil {
		t.Fatal("empty deployment accepted")
	}
	bad := Deployment{
		Routers: QoSNodes(sim.C3XLarge, 1), // wrong layer
		QoS:     QoSNodes(sim.C3XLarge, 1),
	}
	if _, err := Run(bad, shortCfg(10)); err == nil {
		t.Fatal("mislabeled router node accepted")
	}
	good := Deployment{Routers: RouterNodes(sim.C3XLarge, 1), QoS: QoSNodes(sim.C3XLarge, 2)}
	outage := good
	outage.Outage = Outage{Node: 2, From: time.Second}
	if _, err := Run(outage, shortCfg(10)); err == nil {
		t.Fatal("outage of a node outside the QoS layer accepted")
	}
	rules := shortCfg(10)
	rules.Rules = func(string) (float64, float64) { return 1, 1 }
	if _, err := Run(good, rules); err == nil {
		t.Fatal("per-key rules without a key stream accepted")
	}
	loris := shortCfg(10)
	loris.Loris = 1
	if _, err := Run(good, loris); err == nil {
		t.Fatal("slow-loris fraction 1 accepted")
	}
}

func TestSaturatedThroughputMatchesBottleneck(t *testing.T) {
	// Router layer huge, QoS layer one c3.xlarge: the QoS node's capacity
	// is the bottleneck.
	dep := Deployment{
		Routers: RouterNodes(sim.C38XLarge, 4),
		QoS:     QoSNodes(sim.C3XLarge, 1),
	}
	res, err := Run(dep, shortCfg(512))
	if err != nil {
		t.Fatal(err)
	}
	want := (sim.Node{Type: sim.C3XLarge, Layer: sim.LayerQoS}).Capacity()
	if math.Abs(res.Throughput-want)/want > 0.05 {
		t.Fatalf("throughput = %.0f, want ~%.0f", res.Throughput, want)
	}
}

func TestThroughputScalesWithQoSNodes(t *testing.T) {
	get := func(n int) float64 {
		dep := Deployment{
			Routers: RouterNodes(sim.C38XLarge, 5),
			QoS:     QoSNodes(sim.C3XLarge, n),
		}
		res, err := Run(dep, shortCfg(1024))
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	one, four := get(1), get(4)
	ratio := four / one
	if ratio < 3.6 || ratio > 4.4 {
		t.Fatalf("4-node speedup = %.2fx, want ~4x", ratio)
	}
}

func TestRouterBottleneckCapsThroughput(t *testing.T) {
	// One small router in front of a big QoS layer.
	dep := Deployment{
		Routers: RouterNodes(sim.C3Large, 1),
		QoS:     QoSNodes(sim.C38XLarge, 2),
	}
	res, err := Run(dep, shortCfg(256))
	if err != nil {
		t.Fatal(err)
	}
	want := (sim.Node{Type: sim.C3Large, Layer: sim.LayerRouter}).Capacity()
	if math.Abs(res.Throughput-want)/want > 0.05 {
		t.Fatalf("throughput = %.0f, want ~%.0f (router-bound)", res.Throughput, want)
	}
	// Router CPU pegged, QoS CPU low.
	if res.RouterCPUMean() < 0.9 {
		t.Fatalf("router CPU = %.2f, want ~1", res.RouterCPUMean())
	}
	if res.QoSCPUMean() > 0.3 {
		t.Fatalf("QoS CPU = %.2f, want low", res.QoSCPUMean())
	}
}

func TestGatewayAddsLatencyOverDNS(t *testing.T) {
	mk := func(mode RoutingMode) float64 {
		dep := Deployment{
			Routers: RouterNodes(sim.C38XLarge, 2),
			QoS:     QoSNodes(sim.C38XLarge, 2),
			Mode:    mode,
		}
		// Light load (few clients) so latency ~= network + service.
		res, err := Run(dep, shortCfg(4))
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency.Mean()
	}
	dns := mk(DNSPinned)
	gw := mk(GatewayRR)
	extra := (gw - dns) / 1e3 // microseconds
	// The gateway hop adds ~2×250µs to the round trip.
	if extra < 300 || extra > 800 {
		t.Fatalf("gateway extra latency = %.0fµs, want ~500µs", extra)
	}
}

func TestDNSPinnedSkewWithFewClients(t *testing.T) {
	// §V-A: M router nodes, N client machines, M > N → only N routers
	// receive traffic during a TTL cycle.
	pts := dnsSkew(t)
	if pts[0].Routers != 8 || pts[0].Machines != 3 || pts[0].Active != 3 {
		t.Fatalf("%+v, want 3 active routers", pts[0])
	}
	// With machines >> routers the skew disappears.
	if pts[1].Routers != 4 || pts[1].Machines != 64 || pts[1].Active != 4 {
		t.Fatalf("%+v, want 4 active routers", pts[1])
	}
}

func TestDeterministicResults(t *testing.T) {
	dep := Deployment{
		Routers: RouterNodes(sim.C3XLarge, 2),
		QoS:     QoSNodes(sim.C3XLarge, 2),
	}
	r1, err := Run(dep, shortCfg(64))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(dep, shortCfg(64))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("non-deterministic:\n%+v %+v\n%+v %+v", r1, r1.Latency.Snapshot(), r2, r2.Latency.Snapshot())
	}
}

func TestPerNodeLoadBalanced(t *testing.T) {
	dep := Deployment{
		Routers: RouterNodes(sim.C3XLarge, 4),
		QoS:     QoSNodes(sim.C3XLarge, 4),
	}
	res, err := Run(dep, shortCfg(512))
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range [][]NodeReport{res.Routers, res.QoS} {
		var min, max float64 = math.MaxFloat64, 0
		for _, n := range layer {
			if n.Throughput < min {
				min = n.Throughput
			}
			if n.Throughput > max {
				max = n.Throughput
			}
		}
		if (max-min)/max > 0.1 {
			t.Fatalf("unbalanced layer: min %.0f max %.0f", min, max)
		}
	}
}
