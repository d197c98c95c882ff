// Command janus-router runs one Janus request router node (paper §III-B):
// a stateless HTTP front end that partitions QoS requests across the QoS
// server layer and forwards them over UDP with the paper's timeout/retry
// discipline.
//
// A key's QoS server is membership.Pick: jump consistent hash over the
// backend list, where the paper uses CRC32(key) mod N. It is not
// configurable, because every router serving one QoS tier must map keys
// alike. The backend list comes either from -backends (a fixed list) or
// from a membership coordinator (-coordinator), in which case the router
// polls the epoch-versioned view and hot-swaps its routing table as QoS
// servers join, leave, or fail; a join remaps only ~K/(N+1) keys.
//
// Example:
//
//	janus-router -addr 127.0.0.1:8080 -backends 127.0.0.1:7101,127.0.0.1:7102
//	janus-router -addr 127.0.0.1:8080 -coordinator 127.0.0.1:7300
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/debugz"
	"repro/internal/events"
	"repro/internal/membership"
	"repro/internal/router"
	"repro/internal/transport"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		backends     = flag.String("backends", "", "comma-separated QoS server UDP addresses, partition order")
		coordAddr    = flag.String("coordinator", "", "membership coordinator HTTP address (replaces -backends)")
		pollIv       = flag.Duration("poll", time.Second, "coordinator view poll interval")
		timeout      = flag.Duration("timeout", transport.DefaultTimeout, "per-attempt UDP timeout")
		retries      = flag.Int("retries", transport.DefaultRetries, "maximum UDP attempts")
		defaultReply = flag.Bool("default-reply", false, "verdict returned when a QoS server is unreachable")
		metricsAddr  = flag.String("metrics-addr", "", "HTTP address for /metrics and /debug endpoints (empty disables)")
		traceSample  = flag.Float64("trace-sample", 0, "fraction of direct (non-LB) requests to trace [0,1]")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "janus-router ", log.LstdFlags|log.Lmicroseconds)

	var (
		initial []string
		coord   *membership.Client
	)
	switch {
	case *coordAddr != "":
		// Bootstrap the backend list from the coordinator; a QoS server may
		// still be on its way to joining, so wait briefly for a non-empty
		// view instead of failing on a cold cluster.
		coord = &membership.Client{Endpoint: *coordAddr}
		v, err := waitForView(coord, 30*time.Second)
		if err != nil {
			logger.Fatalf("coordinator %s: %v", *coordAddr, err)
		}
		initial = v.Backends
	case *backends != "":
		initial = strings.Split(*backends, ",")
	default:
		logger.Fatal("either -backends or -coordinator is required")
	}

	r, err := router.New(router.Config{
		Addr:         *addr,
		Backends:     initial,
		Transport:    transport.Config{Timeout: *timeout, Retries: *retries},
		DefaultReply: *defaultReply,
		Logger:       logger,
	})
	if err != nil {
		logger.Fatalf("start: %v", err)
	}
	defer r.Close()
	r.Tracer().SetRate(*traceSample)

	var poller *membership.Poller
	if coord != nil {
		poller = membership.NewPoller(coord, *pollIv, func(v membership.View) {
			if err := r.UpdateView(v); err != nil {
				logger.Printf("view epoch %d rejected: %v", v.Epoch, err)
			}
		})
		if err := poller.Start(); err != nil {
			logger.Fatalf("poll coordinator %s: %v", *coordAddr, err)
		}
		defer poller.Stop()
		logger.Printf("following coordinator %s (poll=%v)", *coordAddr, *pollIv)
	}

	dbg, err := debugz.Serve(*metricsAddr, debugz.Options{
		Service:  "janus-router",
		Registry: r.Registry(),
		Tracer:   r.Tracer(),
		Sections: []debugz.Section{{
			Name: "membership",
			Help: "current routing view (epoch, backends)",
			Fn:   func() any { return r.View() },
		}},
		// Not ready when coordinator contact has gone stale beyond 3 poll
		// intervals: the router is alive but may be routing on an obsolete
		// view, so a load balancer should prefer its peers.
		Ready: func() debugz.ReadyStatus {
			st := debugz.ReadyStatus{Ready: true, Detail: map[string]any{
				"view_epoch": r.View().Epoch,
			}}
			if poller != nil {
				age := poller.ContactAge()
				st.Detail["coordinator_contact_age_seconds"] = age.Seconds()
				if age > 3*poller.Interval() {
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

	logger.Printf("request router on http://%s with %d QoS partitions (timeout=%v retries=%d)",
		r.Addr(), r.NumBackends(), *timeout, *retries)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT)
	for s := range sig {
		if s == syscall.SIGQUIT {
			// Flight-recorder dump on demand: kill -QUIT and read recent
			// epoch swaps and default-reply episodes off stderr.
			events.Default.WriteTo(os.Stderr, "janus-router")
			continue
		}
		break
	}
	st := r.Stats()
	fmt.Fprintf(os.Stderr, "janus-router: requests=%d timeouts=%d defaultReplies=%d epoch=%d viewSwaps=%d lastRemap=%.3f latency{%s}\n",
		st.Requests, st.Timeouts, st.DefaultReplies, st.Epoch, st.ViewSwaps, st.LastRemapFraction, r.Latency().Snapshot())
}

// waitForView polls the coordinator until it publishes a non-empty view.
func waitForView(cl *membership.Client, patience time.Duration) (membership.View, error) {
	deadline := time.Now().Add(patience)
	for {
		v, err := cl.FetchView()
		if err == nil && len(v.Backends) > 0 {
			return v, nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("view still empty after %v", patience)
			}
			return membership.View{}, err
		}
		time.Sleep(250 * time.Millisecond)
	}
}
