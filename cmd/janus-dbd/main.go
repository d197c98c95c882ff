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
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/bucket"
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
	logger := log.New(os.Stderr, "janus-dbd ", log.LstdFlags|log.Lmicroseconds)

	engine := minisql.NewEngine()
	srv, err := minisql.NewServer(engine, *addr, logger)
	if err != nil {
		logger.Fatalf("start: %v", err)
	}
	defer srv.Close()

	var rep *minisql.Replica
	if *follow != "" {
		srv.SetReadOnly(true)
		rep = minisql.NewReplica(engine)
		if err := rep.Follow(*follow); err != nil {
			logger.Fatalf("follow %s: %v", *follow, err)
		}
		logger.Printf("standby on tcp://%s following %s", srv.Addr(), *follow)
	} else {
		st := store.New(engine)
		if err := st.Init(); err != nil {
			logger.Fatalf("init schema: %v", err)
		}
		if *seed > 0 {
			rng := rand.New(rand.NewSource(*rngSeed))
			keys := loadgen.Unique(loadgen.NewUUIDGen(*rngSeed), *seed)
			for _, k := range keys {
				rate := *minRate + rng.Float64()*(*maxRate-*minRate)
				capacity := rate * *burst
				if err := st.Put(bucket.Rule{Key: k, RefillRate: rate, Capacity: capacity, Credit: capacity}); err != nil {
					logger.Fatalf("seed: %v", err)
				}
			}
			logger.Printf("seeded %d rules (rate %g..%g req/s)", *seed, *minRate, *maxRate)
		}
		logger.Printf("master on tcp://%s", srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	for s := range sig {
		if s == syscall.SIGUSR1 && rep != nil {
			rep.Promote()
			srv.SetReadOnly(false)
			logger.Printf("promoted to master (at master sequence %d)", rep.Applied())
			rep = nil
			continue
		}
		break
	}
	if rep != nil {
		rep.Stop()
	}
	if n, err := store.New(engine).Count(); err == nil {
		fmt.Fprintf(os.Stderr, "janus-dbd: %d rules at shutdown\n", n)
	}
}
