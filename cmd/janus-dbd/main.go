// Command janus-dbd runs the Janus database layer (paper §II-D, §III-D): a
// minisql server holding the qos_rules table, optionally as a standby
// replicating from a master (the RDS Multi-AZ shape).
//
// Example:
//
//	janus-dbd -addr 127.0.0.1:7000 -seed 1000 -seed-min-rate 1 -seed-max-rate 10000
//	janus-dbd -addr 127.0.0.1:7001 -follow 127.0.0.1:7000   # standby
//
// Send SIGUSR1 to a standby to promote it to master.
package main

import (
	"flag"
	"math/rand"

	"repro/internal/bucket"
	"repro/internal/daemon"
	"repro/internal/loadgen"
	"repro/internal/minisql"
	"repro/internal/store"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7000", "TCP listen address")
		follow  = flag.String("follow", "", "run as standby replicating from this master address")
		seed    = flag.Int("seed", 0, "seed this many synthetic QoS rules (master only)")
		minRate = flag.Float64("seed-min-rate", 1, "minimum refill rate of seeded rules")
		maxRate = flag.Float64("seed-max-rate", 10000, "maximum refill rate of seeded rules (paper: 1..10k req/s)")
		burst   = flag.Float64("seed-burst", 10, "seeded capacity = rate × this factor")
		rngSeed = flag.Int64("rng", 1, "random seed for rule generation")
	)
	flag.Parse()
	d := daemon.New("janus-dbd")

	engine := minisql.NewEngine()
	srv, err := minisql.NewServer(engine, *addr, d.Log)
	if err != nil {
		d.Log.Fatalf("start: %v", err)
	}
	defer srv.Close()

	var promote func()
	if *follow != "" {
		srv.SetReadOnly(true)
		rep := minisql.NewReplica(engine)
		if err := rep.Follow(*follow); err != nil {
			d.Log.Fatalf("follow %s: %v", *follow, err)
		}
		defer rep.Stop()
		promote = func() {
			rep.Promote()
			srv.SetReadOnly(false)
			d.Log.Printf("promoted to master (at master sequence %d)", rep.Applied())
		}
		d.Listening("standby", "tcp", srv.Addr(), "following %s", *follow)
	} else {
		st := store.New(engine)
		if err := st.Init(); err != nil {
			d.Log.Fatalf("init schema: %v", err)
		}
		if *seed > 0 {
			rng := rand.New(rand.NewSource(*rngSeed))
			keys := loadgen.Unique(loadgen.NewUUIDGen(*rngSeed), *seed)
			for _, k := range keys {
				rate := *minRate + rng.Float64()*(*maxRate-*minRate)
				capacity := rate * *burst
				if err := st.Put(bucket.Rule{Key: k, RefillRate: rate, Capacity: capacity, Credit: capacity}); err != nil {
					d.Log.Fatalf("seed: %v", err)
				}
			}
			d.Log.Printf("seeded %d rules (rate %g..%g req/s)", *seed, *minRate, *maxRate)
		}
		d.Listening("master", "tcp", srv.Addr(), "")
	}

	d.Wait(promote)
	if n, err := store.New(engine).Count(); err == nil {
		d.Log.Printf("%d rules at shutdown", n)
	}
}
