// Command janus-lb runs the gateway load balancer (paper §II-A, Fig 1a):
// an HTTP reverse proxy distributing QoS requests across request router
// nodes round robin. It forwards GET requests only (others get 405) over
// one pool of persistent HTTP/1.1 connections per router, and relays each
// router's reply once it has been read whole; a router that fails before its
// reply head is read is skipped for the next one, and 502 is the answer when
// none is left.
//
// Example:
//
//	janus-lb -addr 127.0.0.1:9090 -backends 127.0.0.1:8080,127.0.0.1:8081
package main

import (
	"flag"
	"strings"

	"repro/internal/daemon"
	"repro/internal/debugz"
	"repro/internal/lb"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9090", "HTTP listen address")
		backends    = flag.String("backends", "", "comma-separated request router addresses")
		metricsAddr = flag.String("metrics-addr", "", "HTTP address for /metrics and /debug endpoints (empty disables)")
		traceSample = flag.Float64("trace-sample", 0, "fraction of requests to trace end to end [0,1]")
	)
	flag.Parse()
	d := daemon.New("janus-lb")
	if *backends == "" {
		d.Log.Fatal("at least one -backends address is required")
	}
	l, err := lb.New(lb.Config{
		Addr:     *addr,
		Backends: strings.Split(*backends, ","),
		Logger:   d.Log,
	})
	if err != nil {
		d.Log.Fatalf("start: %v", err)
	}
	defer l.Close()
	l.Tracer().SetRate(*traceSample)

	defer debugz.ServeFor(d, *metricsAddr, debugz.Options{
		Registry: l.Registry(),
		Tracer:   l.Tracer(),
		Sections: []debugz.Section{{
			Name: "backends",
			Help: "back-end addresses and per-backend served counts",
			Fn:   func() any { return l.ServedPerBackend() },
		}},
	}).Close()

	d.Listening("gateway load balancer", "http", l.Addr(), "(round robin, %d back ends)", len(l.Backends()))
	d.Wait(nil)
	st := l.Stats()
	d.Log.Printf("requests=%d proxied=%d backendErrors=%d latency{%s}",
		st.Requests, st.Proxied, st.BackendErrors, l.Latency().Snapshot())
	for addr, served := range l.ServedPerBackend() {
		d.Log.Printf("  %s served %d", addr, served)
	}
}
