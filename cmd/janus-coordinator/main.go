// Command janus-coordinator runs the membership coordinator: the single
// lightweight process that tracks which QoS servers are alive and publishes
// epoch-versioned views of the cluster.
//
// QoS servers register by heartbeating (janusd -coordinator ...); routers
// poll the view and hot-swap their backend list (janus-router -coordinator
// ...). Members whose heartbeats stop for a TTL are ejected — and re-admitted
// at their original partition slot when heartbeats resume.
//
// Example:
//
//	janus-coordinator -addr 127.0.0.1:7300 -ttl 3s
package main

import (
	"flag"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/debugz"
	"repro/internal/membership"
	"repro/internal/metrics"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7300", "HTTP listen address")
		ttl         = flag.Duration("ttl", 3*time.Second, "heartbeat TTL before a member is ejected")
		metricsAddr = flag.String("metrics-addr", "", "HTTP address for /metrics and /debug endpoints (empty disables)")
	)
	flag.Parse()
	d := daemon.New("janus-coordinator")

	coord := membership.NewCoordinator(membership.CoordinatorConfig{TTL: *ttl})
	defer coord.Close()
	coord.Subscribe(func(v membership.View) {
		d.Log.Printf("epoch %d: %d backend(s) [%s]", v.Epoch, len(v.Backends), strings.Join(v.Backends, " "))
	})

	svc, err := membership.NewService(coord, *addr)
	if err != nil {
		d.Log.Fatalf("start: %v", err)
	}
	defer svc.Close()

	reg := metrics.NewRegistry()
	reg.GaugeFunc("janus_coordinator_epoch", "current membership view epoch",
		func() float64 { return float64(coord.Epoch()) })
	reg.GaugeFunc("janus_coordinator_members", "live members in the current view",
		func() float64 { return float64(len(coord.View().Backends)) })
	defer debugz.ServeFor(d, *metricsAddr, debugz.Options{
		Registry: reg,
		Sections: []debugz.Section{{
			Name: "membership",
			Help: "published view (epoch, backends)",
			Fn:   func() any { return coord.View() },
		}},
	}).Close()

	d.Listening("membership coordinator", "http", svc.Addr(), "(ttl=%v)", *ttl)
	d.Wait(nil)
	v := coord.View()
	d.Log.Printf("shutdown at epoch %d with %d member(s)", v.Epoch, len(v.Backends))
}
