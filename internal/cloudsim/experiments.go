package cloudsim

import (
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

// Fig7RouterVertical: one router node of each C-series type; QoS layer
// fixed at one c3.8xlarge (§V-B: "provisioning a single c3.8xlarge node in
// the QoS server layer").
func Fig7RouterVertical(seed int64) ([]ScalePoint, error) {
	var out []ScalePoint
	for _, t := range sim.CSeries {
		dep := Deployment{
			Routers: RouterNodes(t, 1),
			QoS:     QoSNodes(sim.C38XLarge, 1),
		}
		res, err := runPoint(dep, 1024, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalePoint{
			Label:      t.Name,
			VCPUs:      t.VCPUs,
			Nodes:      1,
			Throughput: res.Throughput,
			RouterCPU:  res.RouterCPUMean(),
			QoSCPU:     res.QoSCPUMean(),
		})
	}
	return out, nil
}

// Fig8RouterHorizontal: 1..10 c3.xlarge router nodes; QoS layer fixed at
// one c3.8xlarge. The curve flattens past ~8 nodes when the QoS server
// becomes the bottleneck.
func Fig8RouterHorizontal(seed int64) ([]ScalePoint, error) {
	var out []ScalePoint
	for n := 1; n <= 10; n++ {
		dep := Deployment{
			Routers: RouterNodes(sim.C3XLarge, n),
			QoS:     QoSNodes(sim.C38XLarge, 1),
		}
		res, err := runPoint(dep, 1024, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalePoint{
			Label:      itoa(n),
			VCPUs:      n * sim.C3XLarge.VCPUs,
			Nodes:      n,
			Throughput: res.Throughput,
			RouterCPU:  res.RouterCPUMean(),
			QoSCPU:     res.QoSCPUMean(),
		})
	}
	return out, nil
}

// Fig9RouterCompare overlays vertical and horizontal router scaling as
// throughput vs total router vCPUs.
func Fig9RouterCompare(seed int64) (vertical, horizontal []ScalePoint, err error) {
	vertical, err = Fig7RouterVertical(seed)
	if err != nil {
		return nil, nil, err
	}
	horizontal, err = Fig8RouterHorizontal(seed)
	if err != nil {
		return nil, nil, err
	}
	return vertical, horizontal, nil
}

// Fig10ServerVertical: one QoS node of each C-series type; router layer
// fixed at 5 c3.8xlarge nodes (§V-C).
func Fig10ServerVertical(seed int64) ([]ScalePoint, error) {
	var out []ScalePoint
	for _, t := range sim.CSeries {
		dep := Deployment{
			Routers: RouterNodes(sim.C38XLarge, 5),
			QoS:     QoSNodes(t, 1),
		}
		res, err := runPoint(dep, 1024, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalePoint{
			Label:      t.Name,
			VCPUs:      t.VCPUs,
			Nodes:      1,
			Throughput: res.Throughput,
			RouterCPU:  res.RouterCPUMean(),
			QoSCPU:     res.QoSCPUMean(),
		})
	}
	return out, nil
}

// Fig11ServerHorizontal: 1..10 c3.xlarge QoS nodes; router layer fixed at
// 5 c3.8xlarge nodes. Throughput is linear in node count and exceeds
// 100,000 req/s at 10 nodes — the headline result.
func Fig11ServerHorizontal(seed int64) ([]ScalePoint, error) {
	var out []ScalePoint
	for n := 1; n <= 10; n++ {
		dep := Deployment{
			Routers: RouterNodes(sim.C38XLarge, 5),
			QoS:     QoSNodes(sim.C3XLarge, n),
		}
		res, err := runPoint(dep, 1536, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalePoint{
			Label:      itoa(n),
			VCPUs:      n * sim.C3XLarge.VCPUs,
			Nodes:      n,
			Throughput: res.Throughput,
			RouterCPU:  res.RouterCPUMean(),
			QoSCPU:     res.QoSCPUMean(),
		})
	}
	return out, nil
}

// Fig12ServerCompare overlays vertical and horizontal QoS-server scaling.
func Fig12ServerCompare(seed int64) (vertical, horizontal []ScalePoint, err error) {
	vertical, err = Fig10ServerVertical(seed)
	if err != nil {
		return nil, nil, err
	}
	horizontal, err = Fig11ServerHorizontal(seed)
	if err != nil {
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
	dep := Deployment{
		Routers: RouterNodes(sim.C38XLarge, 5),
		QoS:     QoSNodes(sim.C3XLarge, 10),
	}
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
// "90% of decisions in 3 ms" claim.
func LatencyUnderLoad(seed int64, utilizations []float64) ([]LoadPoint, error) {
	dep := Deployment{
		Routers: RouterNodes(sim.C38XLarge, 5),
		QoS:     QoSNodes(sim.C3XLarge, 10),
	}
	capacity := 0.0
	for _, n := range dep.QoS {
		capacity += n.Capacity()
	}
	var out []LoadPoint
	for _, u := range utilizations {
		res, err := Run(dep, RunConfig{
			OfferedRate: u * capacity,
			Duration:    expDuration,
			Warmup:      expWarmup,
			Seed:        seed,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, LoadPoint{
			Utilization: u,
			OfferedRate: u * capacity,
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
		Mode:    DNSPinned,
		DNSTTL:  time.Hour, // one TTL cycle spans the whole run
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

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
