package cloudsim

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/sim"
)

// This file defines the scaling experiments of §V-B and §V-C as reusable
// functions; cmd/janus-bench prints their results in the paper's layout and
// experiments_test.go asserts their shapes.

// ScalePoint is one x-position of a scaling figure.
type ScalePoint struct {
	Label      string  // instance type (vertical) or node count (horizontal)
	VCPUs      int     // total vCPUs in the scaled layer
	Nodes      int     // node count in the scaled layer
	Throughput float64 // req/s
	RouterCPU  float64 // mean router-layer CPU (0..1)
	QoSCPU     float64 // mean QoS-layer CPU (0..1)
}

// experiment durations: long enough for steady state, short enough that the
// full suite runs in seconds.
const (
	expWarmup   = 1 * time.Second
	expDuration = 4 * time.Second
)

func runPoint(dep Deployment, clients int, seed int64) (Result, error) {
	return Run(dep, RunConfig{
		Clients:  clients,
		Duration: expDuration,
		Warmup:   expWarmup,
		Seed:     seed,
	})
}

// routerLayer scales the router layer in front of one c3.8xlarge QoS node
// (§V-B: "provisioning a single c3.8xlarge node in the QoS server layer").
func routerLayer(t sim.InstanceType, n int) Deployment {
	return Deployment{Routers: RouterNodes(t, n), QoS: QoSNodes(sim.C38XLarge, 1)}
}

// qosLayer scales the QoS layer behind 5 × c3.8xlarge routers (§V-C).
func qosLayer(t sim.InstanceType, n int) Deployment {
	return Deployment{Routers: RouterNodes(sim.C38XLarge, 5), QoS: QoSNodes(t, n)}
}

// sweep saturates one deployment per step of a scaling figure: one node of
// each C-series type (vertical), or 1..10 c3.xlarge nodes (horizontal).
func sweep(horizontal bool, layer func(sim.InstanceType, int) Deployment, clients int, seed int64) ([]ScalePoint, error) {
	steps := len(sim.CSeries)
	if horizontal {
		steps = 10
	}
	out := make([]ScalePoint, 0, steps)
	for i := 0; i < steps; i++ {
		t, n, label := sim.C3XLarge, i+1, strconv.Itoa(i+1)
		if !horizontal {
			t, n, label = sim.CSeries[i], 1, sim.CSeries[i].Name
		}
		res, err := runPoint(layer(t, n), clients, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalePoint{
			Label:      label,
			VCPUs:      n * t.VCPUs,
			Nodes:      n,
			Throughput: res.Throughput,
			RouterCPU:  res.RouterCPUMean(),
			QoSCPU:     res.QoSCPUMean(),
		})
	}
	return out, nil
}

// Fig7RouterVertical: one router node of each C-series type.
func Fig7RouterVertical(seed int64) ([]ScalePoint, error) {
	return sweep(false, routerLayer, 1024, seed)
}

// Fig8RouterHorizontal: 1..10 c3.xlarge router nodes. The curve flattens
// past ~8 nodes when the QoS server becomes the bottleneck.
func Fig8RouterHorizontal(seed int64) ([]ScalePoint, error) {
	return sweep(true, routerLayer, 1024, seed)
}

// Fig9RouterCompare overlays vertical and horizontal router scaling as
// throughput vs total router vCPUs.
func Fig9RouterCompare(seed int64) (vertical, horizontal []ScalePoint, err error) {
	return overlay(Fig7RouterVertical, Fig8RouterHorizontal, seed)
}

// Fig10ServerVertical: one QoS node of each C-series type.
func Fig10ServerVertical(seed int64) ([]ScalePoint, error) {
	return sweep(false, qosLayer, 1024, seed)
}

// Fig11ServerHorizontal: 1..10 c3.xlarge QoS nodes. Throughput is linear in
// node count and exceeds 100,000 req/s at 10 nodes — the headline result.
func Fig11ServerHorizontal(seed int64) ([]ScalePoint, error) {
	return sweep(true, qosLayer, 1536, seed)
}

// Fig12ServerCompare overlays vertical and horizontal QoS-server scaling.
func Fig12ServerCompare(seed int64) (vertical, horizontal []ScalePoint, err error) {
	return overlay(Fig10ServerVertical, Fig11ServerHorizontal, seed)
}

func overlay(v, h func(seed int64) ([]ScalePoint, error), seed int64) (vertical, horizontal []ScalePoint, err error) {
	if vertical, err = v(seed); err != nil {
		return nil, nil, err
	}
	if horizontal, err = h(seed); err != nil {
		return nil, nil, err
	}
	return vertical, horizontal, nil
}

// HeadlineResult checks the abstract's claim: more than 100,000 req/s with
// 10 × 4-vCPU QoS nodes.
type HeadlineResult struct {
	Throughput   float64
	QoSNodes     int
	QoSVCPUs     int
	P90LatencyMS float64
}

// Headline runs the 10-node QoS configuration. Throughput is measured at
// saturation (a maximal closed-loop fleet); the latency percentile is
// measured in a second run at moderate load, matching how the paper reports
// decision latency (from the application-integration test, not from the
// saturation sweep).
func Headline(seed int64) (HeadlineResult, error) {
	dep := qosLayer(sim.C3XLarge, 10)
	sat, err := runPoint(dep, 2048, seed)
	if err != nil {
		return HeadlineResult{}, err
	}
	light, err := runPoint(dep, 64, seed)
	if err != nil {
		return HeadlineResult{}, err
	}
	return HeadlineResult{
		Throughput:   sat.Throughput,
		QoSNodes:     10,
		QoSVCPUs:     40,
		P90LatencyMS: float64(light.Latency.Percentile(90)) / 1e6,
	}, nil
}

// LoadPoint is one offered-rate sample of a latency-under-load curve.
type LoadPoint struct {
	Utilization float64 // offered rate / layer capacity
	OfferedRate float64 // req/s
	Throughput  float64 // completed req/s
	MeanMS      float64
	P90MS       float64
	P99MS       float64
}

// LatencyUnderLoad sweeps the headline deployment (5 × c3.8xlarge routers,
// 10 × c3.xlarge QoS nodes) across offered-load levels and reports the
// latency percentiles at each — the operating envelope behind the paper's
// "90% of decisions in 3 ms" claim. Every utilization must be positive.
func LatencyUnderLoad(seed int64, utilizations []float64) ([]LoadPoint, error) {
	dep := qosLayer(sim.C3XLarge, 10)
	capacity := 0.0
	for _, n := range dep.QoS {
		capacity += n.Capacity()
	}
	var out []LoadPoint
	for _, u := range utilizations {
		if !(u > 0) {
			return nil, fmt.Errorf("cloudsim: offered load at utilization %v; want > 0", u)
		}
		rate := u * capacity
		res, err := Run(dep, RunConfig{
			Rate:     func(time.Duration) float64 { return rate },
			Duration: expDuration,
			Warmup:   expWarmup,
			Seed:     seed,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, LoadPoint{
			Utilization: u,
			OfferedRate: rate,
			Throughput:  res.Throughput,
			MeanMS:      res.Latency.Mean() / 1e6,
			P90MS:       float64(res.Latency.Percentile(90)) / 1e6,
			P99MS:       float64(res.Latency.Percentile(99)) / 1e6,
		})
	}
	return out, nil
}

// DNSTTLSkew quantifies the §V-A problem: with M router nodes and N client
// machines (M > N), a TTL-pinned DNS client fleet keeps only N routers
// busy within a TTL cycle.
func DNSTTLSkew(routerNodes, clientMachines int, seed int64) (active int, throughput float64, err error) {
	dep := Deployment{
		Routers: RouterNodes(sim.C3XLarge, routerNodes),
		QoS:     QoSNodes(sim.C38XLarge, 2),
		Mode:    DNSPinned, // one DNSTTL cycle spans the whole run
	}
	res, err := Run(dep, RunConfig{
		Clients:     512,
		ClientNodes: clientMachines,
		Duration:    expDuration,
		Warmup:      expWarmup,
		Seed:        seed,
	})
	if err != nil {
		return 0, 0, err
	}
	return res.ActiveRouters(), res.Throughput, nil
}
