package repro

// Benchmarks for credit leasing (DESIGN.md §11): a Zipf-hot workload driven
// through one router's admission path against a real UDP QoS server, with
// leasing off (every decision crosses the wire, the pre-PR-6 discipline)
// and on (hot keys are admitted from router-local leased buckets).
// Acceptance: leasing must raise decisions/sec by ≥ 10× on the hot-key
// workload, and the aggregate admission measured across both sides must
// stay within the C + r·t + leased·TTL safety bound. Run with
//
//	make bench-lease
//
// and record the results in BENCH_lease.json.

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/lease"
	"repro/internal/minisql"
	"repro/internal/qosserver"
	"repro/internal/router"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

const (
	leaseBenchKeys = 1024
	leaseBenchRate = 2000.0 // per key per second
	leaseBenchCap  = 2000.0
)

// BenchmarkLeaseZipfHot drives a Zipf(s=1.5) key distribution over 1024
// keys — the hottest key draws ~38% of traffic — through Router.Route.
func BenchmarkLeaseZipfHot(b *testing.B) {
	for _, leased := range []bool{false, true} {
		name := "unleased"
		if leased {
			name = "leased"
		}
		b.Run(name, func(b *testing.B) {
			db := store.New(minisql.NewEngine())
			if err := db.Init(); err != nil {
				b.Fatal(err)
			}
			srv, err := qosserver.New(qosserver.Config{
				Addr:          "127.0.0.1:0",
				Store:         db,
				DefaultRule:   bucket.Rule{RefillRate: leaseBenchRate, Capacity: leaseBenchCap, Credit: leaseBenchCap},
				LeaseFraction: 0.5,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()

			rcfg := router.Config{
				Addr:      "127.0.0.1:0",
				Backends:  []string{srv.Addr()},
				Transport: transport.Config{Timeout: 100 * time.Millisecond, Retries: 5},
			}
			if leased {
				rcfg.Lease = &lease.TableConfig{HotRate: 10}
			}
			r, err := router.New(rcfg)
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()

			start := time.Now()
			// Warm: in leased mode this builds the demand estimates and
			// acquires the leases the steady state runs on; in both modes it
			// heats sockets and installs the hot buckets.
			warm := time.Now().Add(300 * time.Millisecond)
			wrng := rand.New(rand.NewSource(1))
			wz := rand.NewZipf(wrng, 1.5, 1, leaseBenchKeys-1)
			for time.Now().Before(warm) {
				r.Route(wireRequest(wz.Uint64()))
			}

			var seed atomic.Int64
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(1000 + seed.Add(1)))
				z := rand.NewZipf(rng, 1.5, 1, leaseBenchKeys-1)
				for pb.Next() {
					r.Route(wireRequest(z.Uint64()))
				}
			})
			b.StopTimer()
			elapsed := time.Since(start)

			st := r.Stats()
			sst := srv.Stats()
			if leased {
				total := st.LeaseHits + st.LeaseMisses
				if total > 0 {
					b.ReportMetric(float64(st.LeaseHits)/float64(total), "lease-hit-frac")
				}
				b.ReportMetric(float64(st.Leases), "leases")
			}
			// Safety accounting over the whole run (warm included): server
			// admissions plus router-local lease admissions against the
			// K·C + K·r·t + leased·TTL bound for the keys actually touched.
			admits := float64(sst.Allowed) + float64(st.LeaseAllowed)
			k := float64(srv.TableLen())
			bound := k*leaseBenchCap + k*leaseBenchRate*elapsed.Seconds() +
				sst.LeasedRate*lease.DefaultTTL.Seconds()
			if admits > bound {
				b.Errorf("aggregate admissions %.0f exceed C+r·t+leased·TTL bound %.0f", admits, bound)
			}
			if bound > 0 {
				b.ReportMetric(admits/bound, "admit/bound")
			}
		})
	}
}

func wireRequest(rank uint64) wire.Request {
	return wire.Request{Key: fmt.Sprintf("zipf-%04d", rank), Cost: 1}
}
