// Package experiments is the one definition of each paper artifact that
// runs on the real networked implementation: Fig 5 (gateway vs DNS load
// balancing), Fig 6 (key pressure) and Fig 13a/13b (application
// integration through the photo app). Each function builds its own stack on
// loopback at the size it is given, returns the data, and returns an error
// when the paper's shape is not reproduced; on a shape error the result is
// still returned so it can be printed, on any other error it is the zero
// value. cmd/janus-bench prints the results at the paper's sizes and the
// package's test gates the shapes in tier-1 at short ones. The simulated
// artifacts (Figs 7–12, headline, extensions) are internal/cloudsim's.
package experiments

import (
	"context"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/bucket"
	"repro/internal/cluster"
	"repro/internal/loadgen"
	"repro/internal/metrics"
)

// GatewayHopDelay models the extra connection the ELB opens to the back end
// (paper §V-A: "using the gateway load balancer adds approximately 500
// microsecond to the round-trip latency"); loopback has no such distance,
// so Fig 5 injects it.
const GatewayHopDelay = 500 * time.Microsecond

// Fig5Size sizes Fig 5.
type Fig5Size struct {
	Requests int // per client (paper: 100 000)
	Seed     int64
}

// Fig5Result holds the round-trip latency distribution per front end.
type Fig5Result struct {
	DNS, Gateway *metrics.Histogram
}

// Fig5 measures admission round trips through 2 routers + 2 QoS servers
// under each front end with the paper's two single-thread clients.
func Fig5(size Fig5Size) (Fig5Result, error) {
	measure := func(mode cluster.Mode, hop func()) (*metrics.Histogram, error) {
		c, err := cluster.New(cluster.Config{
			Routers:    2,
			QoSServers: 2,
			Mode:       mode,
			LBHopDelay: hop,
			DefaultRule: bucket.Rule{ // clients use arbitrary keys
				RefillRate: 1e12, Capacity: 1e12, Credit: 1e12,
			},
		})
		if err != nil {
			return nil, fmt.Errorf("fig5: %w", err)
		}
		defer c.Close()
		res := loadgen.RunClosedLoop(context.Background(), loadgen.ClosedLoopConfig{
			Checker:     c.Checker(),
			Keys:        loadgen.NewUUIDGen(size.Seed),
			Concurrency: 2,
			Requests:    int64(2 * size.Requests),
		})
		if res.Errors > 0 {
			return nil, fmt.Errorf("fig5: %d request errors", res.Errors)
		}
		return res.Latency, nil
	}
	dns, err := measure(cluster.DNS, nil)
	if err != nil {
		return Fig5Result{}, err
	}
	gw, err := measure(cluster.Gateway, func() { time.Sleep(GatewayHopDelay) })
	if err != nil {
		return Fig5Result{}, err
	}
	res := Fig5Result{DNS: dns, Gateway: gw}
	return res, res.check()
}

func (r Fig5Result) check() error {
	if r.Gateway.Mean() <= r.DNS.Mean() {
		return fmt.Errorf("fig5 shape not reproduced: gateway (%.0fµs) not slower than DNS (%.0fµs)",
			r.Gateway.Mean()/1000, r.DNS.Mean()/1000)
	}
	return nil
}

// Fig6Servers is the paper's QoS-server count for the key-pressure study.
const Fig6Servers = 20

// Fig6Size sizes Fig 6.
type Fig6Size struct {
	Keys int // unique keys per population (paper: 500 000)
	Seed int64
}

// Pressure is the share of one key population each server received, in
// percent of the population.
type Pressure struct {
	Population                string
	MinPct, MaxPct, StdDevPct float64
}

// Fig6Result is one Pressure per key population.
type Fig6Result struct {
	Populations []Pressure
}

// Fig6 hashes each of the paper's four key populations across Fig6Servers
// with the paper's routing formula, paperPartition. The router itself runs
// jump consistent hash (membership.Pick), whose spread
// membership.TestPickerDistribution holds to the same band.
func Fig6(size Fig6Size) (Fig6Result, error) {
	pops := []struct {
		name string
		gen  loadgen.KeyGen
	}{
		{"UUID", loadgen.NewUUIDGen(size.Seed)},
		{"TimeStamp", loadgen.NewTimestampGen(size.Seed)},
		{"EnglishVocabulary", loadgen.NewWordGen(size.Seed)},
		{"SequentialNumbers", loadgen.NewSequentialGen(loadgen.PaperSequentialStart)},
	}
	var res Fig6Result
	for _, p := range pops {
		counts := make([]int, Fig6Servers)
		for _, k := range loadgen.Unique(p.gen, size.Keys) {
			counts[paperPartition(k, Fig6Servers)]++
		}
		var w metrics.Welford
		for _, c := range counts {
			w.Add(float64(c) / float64(size.Keys) * 100)
		}
		res.Populations = append(res.Populations,
			Pressure{Population: p.name, MinPct: w.Min(), MaxPct: w.Max(), StdDevPct: w.StdDev()})
	}
	return res, res.check()
}

// paperPartition is the paper's key→server formula (§III-B): seed =
// CRC32(key), server = seed mod n.
func paperPartition(key string, n int) int {
	return int(crc32.ChecksumIEEE([]byte(key)) % uint32(n))
}

func (r Fig6Result) check() error {
	for _, p := range r.Populations {
		if p.MinPct < 4.5 || p.MaxPct > 5.5 {
			return fmt.Errorf("fig6 shape not reproduced: %s pressure outside the paper's band: [%.3f, %.3f]",
				p.Population, p.MinPct, p.MaxPct)
		}
	}
	return nil
}
