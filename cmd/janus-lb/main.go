// Command janus-lb runs the gateway load balancer (paper §II-A, Fig 1a):
// an HTTP reverse proxy distributing QoS requests across request router
// nodes with round-robin or least-connections routing. It forwards GET
// requests only (others get 405) over one pool of persistent HTTP/1.1
// connections per router, and relays each router's reply once it has been
// read whole; a router that fails before its reply head is read is skipped
// for the next one, and 502 is the answer when none is left.
//
// Example:
//
//	janus-lb -addr 127.0.0.1:9090 -backends 127.0.0.1:8080,127.0.0.1:8081 -policy round-robin
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/debugz"
	"repro/internal/events"
	"repro/internal/lb"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9090", "HTTP listen address")
		backends    = flag.String("backends", "", "comma-separated request router addresses")
		policy      = flag.String("policy", "round-robin", "routing policy: round-robin|least-connections")
		metricsAddr = flag.String("metrics-addr", "", "HTTP address for /metrics and /debug endpoints (empty disables)")
		traceSample = flag.Float64("trace-sample", 0, "fraction of requests to trace end to end [0,1]")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "janus-lb ", log.LstdFlags|log.Lmicroseconds)
	if *backends == "" {
		logger.Fatal("at least one -backends address is required")
	}
	l, err := lb.New(lb.Config{
		Addr:     *addr,
		Backends: strings.Split(*backends, ","),
		Policy:   lb.Policy(*policy),
		Logger:   logger,
	})
	if err != nil {
		logger.Fatalf("start: %v", err)
	}
	defer l.Close()
	l.Tracer().SetRate(*traceSample)

	dbg, err := debugz.Serve(*metricsAddr, debugz.Options{
		Service:  "janus-lb",
		Registry: l.Registry(),
		Tracer:   l.Tracer(),
		Sections: []debugz.Section{{
			Name: "backends",
			Help: "back-end addresses and per-backend served counts",
			Fn:   func() any { return l.ServedPerBackend() },
		}},
		Logger: logger,
	})
	if err != nil {
		logger.Fatalf("debug endpoint: %v", err)
	}
	defer dbg.Close()
	if dbg.Addr() != "" {
		logger.Printf("metrics/debug on http://%s", dbg.Addr())
	}

	logger.Printf("gateway load balancer on http://%s (%s, %d back ends)", l.Addr(), *policy, len(l.Backends()))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT)
	for s := range sig {
		if s == syscall.SIGQUIT {
			// Flight-recorder dump on demand (kill -QUIT).
			events.Default.WriteTo(os.Stderr, "janus-lb")
			continue
		}
		break
	}
	st := l.Stats()
	fmt.Fprintf(os.Stderr, "janus-lb: requests=%d proxied=%d backendErrors=%d latency{%s}\n",
		st.Requests, st.Proxied, st.BackendErrors, l.Latency().Snapshot())
	for addr, served := range l.ServedPerBackend() {
		fmt.Fprintf(os.Stderr, "janus-lb:   %s served %d\n", addr, served)
	}
}
