// Photoshare: the paper's §IV/§V-D integration scenario end to end.
//
//	go run ./examples/photoshare            # scripted demo
//	go run ./examples/photoshare -serve     # keep serving; curl it yourself
//
// It boots a full Janus deployment (LB → routers → QoS servers → database)
// plus the photo-sharing application with its memcached session server and
// minisql photo database, wires the QoS check in front of the index page
// keyed by client IP, and demonstrates the throttle.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/app"
	"repro/internal/bucket"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/memcache"
	"repro/internal/minisql"
)

func main() {
	serve := flag.Bool("serve", false, "keep serving until interrupted")
	flag.Parse()

	// Janus: 2 routers, 2 QoS servers behind a gateway LB.
	janus, err := cluster.New(cluster.Config{
		Routers:    2,
		QoSServers: 2,
		// Known subscriber: 100 req/s with burst 1000.
		Rules: []bucket.Rule{{Key: "203.0.113.50", RefillRate: 100, Capacity: 1000, Credit: 1000}},
		// Anonymous visitors: 10 req/s, burst 100 (paper's default rule).
		DefaultRule:        bucket.Rule{RefillRate: 10, Capacity: 100, Credit: 100},
		SyncInterval:       time.Second,
		CheckpointInterval: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer janus.Close()
	fmt.Printf("Janus endpoint:      http://%s/qos\n", janus.Endpoint())

	// Application substrate: memcached sessions + minisql photo DB.
	mcSrv, err := memcache.NewServer(memcache.NewCache(), "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer mcSrv.Close()
	db := minisql.NewEngine()
	if err := app.Seed(db, 24); err != nil {
		log.Fatal(err)
	}

	// The integration is one wrapper (paper's PHP snippet): QoS check on
	// the client IP before the original page.
	photo, err := app.New(app.Config{
		Addr:         "127.0.0.1:0",
		MemcacheAddr: mcSrv.Addr(),
		DB:           db,
		QoS:          client.New(janus.Endpoint()),
		LatestN:      8,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer photo.Close()
	fmt.Printf("Photo app:           http://%s/\n\n", photo.Addr())

	if *serve {
		fmt.Println("serving — try: curl -H 'X-Forwarded-For: 203.0.113.50' http://" + photo.Addr() + "/")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		return
	}

	get := func(ip string) int {
		req, _ := http.NewRequest("GET", "http://"+photo.Addr()+"/", nil)
		req.Header.Set("X-Forwarded-For", ip)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	fmt.Println("== anonymous visitor (default rule: 10 req/s, burst 100) ==")
	okCount, throttled := 0, 0
	for i := 0; i < 120; i++ {
		if get("198.51.100.7") == http.StatusOK {
			okCount++
		} else {
			throttled++
		}
	}
	fmt.Printf("120 rapid requests: %d served, %d throttled with 403\n", okCount, throttled)

	fmt.Println("\n== subscriber (custom rule: 100 req/s, burst 1000) ==")
	okCount, throttled = 0, 0
	for i := 0; i < 120; i++ {
		if get("203.0.113.50") == http.StatusOK {
			okCount++
		} else {
			throttled++
		}
	}
	fmt.Printf("120 rapid requests: %d served, %d throttled\n", okCount, throttled)

	fmt.Println("\n== throttled visitors recover at their refill rate ==")
	time.Sleep(1200 * time.Millisecond)
	code := get("198.51.100.7")
	fmt.Printf("anonymous visitor after 1.2s: HTTP %d\n", code)

	fmt.Printf("\nJanus made %d admission decisions across %d QoS servers\n",
		janus.AggregateQoSStats().Decisions, len(janus.QoS))
}
