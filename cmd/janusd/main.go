// Command janusd runs one Janus QoS server node (paper §III-C): a UDP
// decision service backed by a local leaky-bucket table, with optional
// database synchronization, checkpointing, and an HA replication listener.
//
// Example:
//
//	janus-dbd  -addr 127.0.0.1:7000 &
//	janusd     -addr 127.0.0.1:7101 -db 127.0.0.1:7000 -repl 127.0.0.1:7201
//	janusd     -addr 127.0.0.1:7102 -db 127.0.0.1:7000 -follow 127.0.0.1:7201
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bucket"
	"repro/internal/debugz"
	"repro/internal/events"
	"repro/internal/membership"
	"repro/internal/minisql"
	"repro/internal/qosserver"
	"repro/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7101", "UDP listen address")
		workers     = flag.Int("workers", 0, "worker goroutines (0 = #CPUs)")
		queue       = flag.Int("queue", 65536, "intake FIFO capacity")
		codelTarget = flag.Duration("codel-target", qosserver.DefaultCodelTarget, "CoDel queue sojourn target (<= 0 selects the default)")
		codelIv     = flag.Duration("codel-interval", qosserver.DefaultCodelInterval, "CoDel standing-queue detection interval")
		dbAddr      = flag.String("db", "", "minisql database address (empty = no database)")
		defRate     = flag.Float64("default-rate", 0, "default rule refill rate (req/s) for unknown keys")
		defCapacity = flag.Float64("default-capacity", 0, "default rule bucket capacity for unknown keys")
		syncIv      = flag.Duration("sync", 5*time.Second, "database rule sync interval (0 disables)")
		checkpoint  = flag.Duration("checkpoint", 10*time.Second, "database checkpoint interval (0 disables)")
		replAddr    = flag.String("repl", "", "HA replication listen address (empty disables)")
		follow      = flag.String("follow", "", "run as slave replicating from this master replication address")
		followIv    = flag.Duration("follow-interval", 100*time.Millisecond, "slave replication pull interval")
		failOpen    = flag.Bool("fail-open", false, "admit requests when the database is unreachable")
		preload     = flag.Bool("preload", false, "load the full rule table from the database at startup")
		coordAddr   = flag.String("coordinator", "", "membership coordinator HTTP address (empty = no membership)")
		memberName  = flag.String("member-name", "", "name to register with the coordinator (default: the UDP listen address)")
		beatIv      = flag.Duration("beat", time.Second, "coordinator heartbeat interval")
		metricsAddr = flag.String("metrics-addr", "", "HTTP address for /metrics and /debug endpoints (empty disables)")
		auditOn     = flag.Bool("audit", true, "run the online admission-audit ledger (/debug/audit)")
		auditIv     = flag.Duration("audit-interval", time.Second, "background admission-audit pass interval")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "janusd ", log.LstdFlags|log.Lmicroseconds)

	var st *store.Store
	if *dbAddr != "" {
		pool := minisql.NewPool(*dbAddr, 8)
		defer pool.Close()
		st = store.New(pool)
		if err := st.Init(); err != nil {
			logger.Fatalf("database init: %v", err)
		}
	}

	cfg := qosserver.Config{
		Addr:               *addr,
		Workers:            *workers,
		QueueSize:          *queue,
		CodelTarget:        *codelTarget,
		CodelInterval:      *codelIv,
		DefaultRule:        bucket.Rule{RefillRate: *defRate, Capacity: *defCapacity, Credit: *defCapacity},
		SyncInterval:       *syncIv,
		CheckpointInterval: *checkpoint,
		Store:              st,
		FailOpen:           *failOpen,
		ReplicationAddr:    *replAddr,
		Logger:             logger,
		Audit:              *auditOn,
		AuditInterval:      *auditIv,
	}
	srv, err := qosserver.New(cfg)
	if err != nil {
		logger.Fatalf("start: %v", err)
	}
	defer srv.Close()
	if *preload {
		if err := srv.Preload(); err != nil {
			logger.Fatalf("preload: %v", err)
		}
		logger.Printf("preloaded %d rules", srv.TableLen())
	}
	var beater *membership.Beater
	if *coordAddr != "" {
		// Register with the membership coordinator and keep beating so the
		// node stays in the published view. The member name doubles as the
		// routers' dial address, so it defaults to the UDP listen address;
		// the advertised handoff address is the replication listener, which
		// receives bucket state during rebalancing.
		name := *memberName
		if name == "" {
			name = srv.Addr()
		}
		beater = membership.NewBeater(&membership.Client{Endpoint: *coordAddr}, name, srv.ReplicationAddr(), *beatIv)
		if err := beater.Start(); err != nil {
			logger.Fatalf("join coordinator %s: %v", *coordAddr, err)
		}
		defer beater.Stop()
		logger.Printf("joined coordinator %s as %q (beat=%v)", *coordAddr, name, *beatIv)
	}

	dbg, err := debugz.Serve(*metricsAddr, debugz.Options{
		Service:  "janusd",
		Registry: srv.Registry(),
		Tracer:   srv.Tracer(),
		Sections: []debugz.Section{{
			Name: "qos",
			Help: "intake state (workers, FIFO depth, CoDel) and leaky-bucket table snapshot",
			Fn: func() any {
				return map[string]any{
					"intake":  srv.SnapshotIntake(),
					"buckets": srv.SnapshotBuckets(1024),
				}
			},
		}, {
			Name: "audit",
			Help: "admission-audit ledger verdict (conservation check over every bucket)",
			Fn:   func() any { return srv.AuditReport() },
		}},
		// Not ready when rule sync or coordinator contact has gone stale
		// beyond 3 intervals: the node is alive (/healthz still answers)
		// but is deciding on rules, or under a membership view, that the
		// rest of the cluster may have moved past.
		Ready: func() debugz.ReadyStatus {
			st := debugz.ReadyStatus{Ready: true, Detail: map[string]any{}}
			if age, enabled := srv.SyncAge(); enabled {
				st.Detail["rules_sync_age_seconds"] = age.Seconds()
				if age > 3**syncIv {
					st.Ready = false
					st.Detail["rules_sync_stale"] = true
				}
			}
			if beater != nil {
				age := beater.ContactAge()
				st.Detail["coordinator_contact_age_seconds"] = age.Seconds()
				if age > 3*beater.Interval() {
					st.Ready = false
					st.Detail["membership_stale"] = true
				}
			}
			return st
		},
		Logger: logger,
	})
	if err != nil {
		logger.Fatalf("debug endpoint: %v", err)
	}
	defer dbg.Close()
	if dbg.Addr() != "" {
		logger.Printf("metrics/debug on http://%s", dbg.Addr())
	}

	logger.Printf("QoS server on udp://%s (workers=%d codel-target=%v)",
		srv.Addr(), srv.SnapshotIntake().Workers, *codelTarget)
	if srv.ReplicationAddr() != "" {
		logger.Printf("HA replication on tcp://%s", srv.ReplicationAddr())
	}

	var rep *qosserver.Replicator
	if *follow != "" {
		rep = qosserver.NewReplicator(srv, *follow, *followIv)
		if err := rep.Start(); err != nil {
			logger.Fatalf("follow %s: %v", *follow, err)
		}
		logger.Printf("replicating from %s every %v", *follow, *followIv)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1, syscall.SIGQUIT)
	for s := range sig {
		if s == syscall.SIGQUIT {
			// Flight-recorder dump on demand: kill -QUIT a misbehaving node
			// and read the last few thousand operational events off stderr.
			events.Default.WriteTo(os.Stderr, "janusd")
			continue
		}
		if s == syscall.SIGUSR1 && rep != nil {
			// Promotion: stop pulling, keep serving the warm table.
			rep.Stop()
			events.Record("janusd", "promote", srv.Addr(), 0)
			logger.Printf("promoted: replication stopped, serving as master")
			rep = nil
			continue
		}
		break
	}
	st0 := srv.Stats()
	fmt.Fprintf(os.Stderr, "janusd: decisions=%d allowed=%d denied=%d dbQueries=%d dropped=%d degraded=%d\n",
		st0.Decisions, st0.Allowed, st0.Denied, st0.DBQueries, st0.Dropped, st0.Degraded)
}
