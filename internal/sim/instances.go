// Package sim models the AWS testbed of the paper's evaluation (§V):
// the EC2 instance catalogue of Table I and a calibrated node cost model
// that converts an instance type into a per-layer processing capacity and a
// CPU-utilization profile.
//
// This package is the substitution for physical EC2 hardware (see
// DESIGN.md): the scaling experiments need nodes whose capacity is a
// function of vCPU count, which cannot be realised faithfully on a single
// development machine. The model is calibrated against the paper's observed
// saturation points:
//
//   - a QoS server layer of 10 × c3.xlarge (40 vCPUs) exceeds 100,000
//     requests/s (§I, §VII) — so a QoS core handles ≈ 2,900 req/s;
//   - one c3.8xlarge QoS server saturates around 90,000 req/s, which is
//     where the router horizontal-scaling curve flattens past 8 × c3.xlarge
//     router nodes (Fig 8a) — so a router core handles ≈ 2,850 req/s;
//   - QoS vertical scaling slightly beats horizontal at equal vCPUs
//     (Fig 12) — modelled as a fixed per-node core overhead (listener +
//     housekeeping threads), paid once per node;
//   - the QoS server shows significant CPU under-utilization at saturation
//     (Fig 10b), attributed by the authors to the QoS-table locking —
//     modelled as a per-layer utilization ceiling.
package sim

import (
	"fmt"
	"sort"
)

// InstanceType describes one EC2 instance configuration (Table I).
type InstanceType struct {
	Name        string
	VCPUs       int
	MemoryGB    float64
	NetworkMbps int
	PriceUSD    float64 // per instance-hour, ap-southeast-2, 2018
}

// Table I of the paper.
var (
	C3Large   = InstanceType{Name: "c3.large", VCPUs: 2, MemoryGB: 3.75, NetworkMbps: 250, PriceUSD: 0.188}
	C3XLarge  = InstanceType{Name: "c3.xlarge", VCPUs: 4, MemoryGB: 7.5, NetworkMbps: 500, PriceUSD: 0.376}
	C32XLarge = InstanceType{Name: "c3.2xlarge", VCPUs: 8, MemoryGB: 15, NetworkMbps: 1000, PriceUSD: 0.752}
	C34XLarge = InstanceType{Name: "c3.4xlarge", VCPUs: 16, MemoryGB: 30, NetworkMbps: 2000, PriceUSD: 1.504}
	C38XLarge = InstanceType{Name: "c3.8xlarge", VCPUs: 32, MemoryGB: 60, NetworkMbps: 10000, PriceUSD: 3.008}
	R3XLarge  = InstanceType{Name: "r3.xlarge", VCPUs: 4, MemoryGB: 30.5, NetworkMbps: 500, PriceUSD: 0.455}
	R32XLarge = InstanceType{Name: "r3.2xlarge", VCPUs: 8, MemoryGB: 61, NetworkMbps: 1000, PriceUSD: 0.910}
)

// Catalog lists every instance type of Table I, in the paper's order.
var Catalog = []InstanceType{C3Large, C3XLarge, C32XLarge, C34XLarge, C38XLarge, R3XLarge, R32XLarge}

// CSeries lists the compute instance types used in the scaling sweeps
// (Figs 7 and 10).
var CSeries = []InstanceType{C3Large, C3XLarge, C32XLarge, C34XLarge, C38XLarge}

// Names returns all catalogue names, sorted.
func Names() []string {
	out := make([]string, len(Catalog))
	for i, t := range Catalog {
		out[i] = t.Name
	}
	sort.Strings(out)
	return out
}

// Layer identifies which Janus layer a node belongs to; the cost model is
// per layer (PHP routing work vs Java bucket work).
type Layer string

// Layers with distinct cost profiles.
const (
	LayerRouter Layer = "router"
	LayerQoS    Layer = "qos"
)

// LayerProfile holds the calibrated constants for one layer.
type LayerProfile struct {
	// RatePerCore is the sustained request rate one fully-busy core
	// delivers (req/s).
	RatePerCore float64
	// OverheadCores is the per-node fixed core cost (listener thread,
	// housekeeping, kernel UDP work) paid regardless of node size.
	OverheadCores float64
	// UtilCeiling is the fraction of nominal CPU the layer can actually
	// keep busy at saturation (lock-induced idling; 1.0 = none).
	UtilCeiling float64
}

// Calibrated per-layer profiles (see package comment for derivation).
var profiles = map[Layer]LayerProfile{
	LayerRouter: {RatePerCore: 2850, OverheadCores: 0.05, UtilCeiling: 0.99},
	LayerQoS:    {RatePerCore: 2900, OverheadCores: 0.30, UtilCeiling: 0.80},
}

// Node is one provisioned instance serving one Janus layer.
type Node struct {
	Type  InstanceType
	Layer Layer
}

// Capacity returns the node's maximum sustainable throughput in req/s.
func (n Node) Capacity() float64 {
	p := profiles[n.Layer]
	cores := float64(n.Type.VCPUs) - p.OverheadCores
	if cores < 0.1 {
		cores = 0.1
	}
	return p.RatePerCore * cores
}

// ServiceTime returns the per-request service time in seconds on one of the
// node's effective workers (Capacity = Workers / ServiceTime).
func (n Node) ServiceTime() float64 {
	return float64(n.Workers()) / n.Capacity()
}

// Workers returns the node's effective parallel service slots.
func (n Node) Workers() int {
	w := n.Type.VCPUs
	if w < 1 {
		w = 1
	}
	return w
}

// CPUUtilization converts an offered per-node load (req/s) into the CPU
// utilization an operator would observe on the node's monitoring graphs.
// Utilization grows linearly with load and is clamped at the layer's
// ceiling (the lock-idle effect of §V-C).
func (n Node) CPUUtilization(load float64) float64 {
	p := profiles[n.Layer]
	if load < 0 {
		load = 0
	}
	cap := n.Capacity()
	if load > cap {
		load = cap
	}
	// At saturation the node keeps UtilCeiling × (usable/total) of its
	// vCPUs busy; below saturation utilization is proportional.
	usable := float64(n.Type.VCPUs) - p.OverheadCores
	satUtil := p.UtilCeiling * usable / float64(n.Type.VCPUs)
	// The fixed overhead cores are busy whenever the node serves traffic.
	base := p.OverheadCores / float64(n.Type.VCPUs)
	util := base + (satUtil-base)*(load/cap)
	if util > 1 {
		util = 1
	}
	return util
}

// String implements fmt.Stringer.
func (t InstanceType) String() string {
	return fmt.Sprintf("%s(%dvCPU,%.1fGB)", t.Name, t.VCPUs, t.MemoryGB)
}
