package cloudsim

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// FailureResult summarizes a failure-injection run.
type FailureResult struct {
	// FailedPartition is the index of the killed QoS node.
	FailedPartition int
	// DefaultReplies counts decisions answered by the router's default
	// reply per partition.
	DefaultReplies []int64
	// HealthyBefore / HealthyAfter are req/s served by the healthy
	// partitions before and after the failure instant.
	HealthyBefore float64
	HealthyAfter  float64
	// RecoveredAt reports when the replacement node took over (relative to
	// run start); zero when no replacement was configured.
	RecoveredAt time.Duration
}

// FailureLocalityConfig drives the experiment.
type FailureLocalityConfig struct {
	// QoSNodes is the partition count (c3.xlarge nodes).
	QoSNodes int
	// FailAt is when the node dies; ReplaceAt, when > FailAt, brings a
	// replacement up (warm from checkpoints, same partition index).
	FailAt    time.Duration
	ReplaceAt time.Duration
	// Duration is the total run length; Clients the closed-loop fleet.
	Duration time.Duration
	Clients  int
	Seed     int64
}

// FailureLocality quantifies paper §II-D: "a failed QoS server is a
// localized failure in that it does not impact the normal operation of
// other QoS servers in the system." It runs the headline deployment with an
// outage of its middle QoS node from FailAt to ReplaceAt and reports, per
// partition, the decisions lost to router default replies, and the healthy
// partitions' throughput before and after the failure (the run's warmup
// ends at FailAt).
func FailureLocality(cfg FailureLocalityConfig) (FailureResult, error) {
	if cfg.QoSNodes < 2 {
		return FailureResult{}, fmt.Errorf("cloudsim: failure locality needs >= 2 QoS nodes")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 512
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.FailAt <= 0 || cfg.FailAt >= cfg.Duration {
		cfg.FailAt = cfg.Duration / 3
	}
	dep := qosLayer(sim.C3XLarge, cfg.QoSNodes)
	dep.Outage = Outage{Node: cfg.QoSNodes / 2, From: cfg.FailAt, To: cfg.ReplaceAt}
	res, err := Run(dep, RunConfig{
		Clients:  cfg.Clients,
		Warmup:   cfg.FailAt,
		Duration: cfg.Duration - cfg.FailAt,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return FailureResult{}, err
	}
	out := FailureResult{FailedPartition: dep.Outage.Node}
	for i, n := range res.QoS {
		out.DefaultReplies = append(out.DefaultReplies, n.DefaultReplies)
		if i != out.FailedPartition {
			out.HealthyBefore += n.WarmupThroughput
			out.HealthyAfter += n.Throughput
		}
	}
	if cfg.ReplaceAt > cfg.FailAt && cfg.ReplaceAt <= cfg.Duration {
		out.RecoveredAt = cfg.ReplaceAt
	}
	return out, nil
}
