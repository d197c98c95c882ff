// Quickstart: run Janus in-process and make admission decisions.
//
//	go run ./examples/quickstart
//
// It boots the whole deployment on loopback (gateway LB → router → QoS
// servers → rule database), creates two QoS rules — a paid user with burst
// credit and a free tier — checks requests against them, and shows credit
// accumulation allowing a burst (paper §II-C). A service in production
// checks a running deployment with client.New(endpoint) instead.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/bucket"
	"repro/internal/cluster"
)

func main() {
	janus, err := cluster.New(cluster.Config{
		QoSServers: 2,
		// Unknown keys get a small guest allowance (paper §II-D).
		DefaultRule: bucket.LimitedGuest("", 1, 3),
		Rules: []bucket.Rule{
			// alice purchased 100 req/s with a 1000-credit burst bucket.
			{Key: "alice", RefillRate: 100, Capacity: 1000, Credit: 1000},
			// bob is on the free tier: 5 req/s, small bucket.
			{Key: "bob", RefillRate: 5, Capacity: 10, Credit: 10},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer janus.Close()
	check := func(key string) bool {
		ok, err := janus.Check(key)
		if err != nil {
			log.Fatal(err)
		}
		return ok
	}

	fmt.Println("== burst: alice spends her full 1000-credit bucket at once ==")
	admitted := 0
	for i := 0; i < 1100; i++ {
		if check("alice") {
			admitted++
		}
	}
	fmt.Printf("alice: %d/1100 requests admitted (capacity 1000 + a few refills)\n", admitted)

	fmt.Println("\n== steady state: denied now, ~100 more admitted after 1s of refill ==")
	if check("alice") {
		fmt.Println("alice admitted immediately (unexpected)")
	} else {
		fmt.Println("alice denied: bucket empty")
	}
	time.Sleep(time.Second)
	admitted = 0
	for i := 0; i < 200; i++ {
		if check("alice") {
			admitted++
		}
	}
	fmt.Printf("after 1s: %d/200 admitted (≈ refill rate × 1s)\n", admitted)

	fmt.Println("\n== free tier and guests ==")
	for i := 1; i <= 12; i++ {
		fmt.Printf("bob request %2d: %v\n", i, check("bob"))
	}
	for i := 1; i <= 5; i++ {
		fmt.Printf("guest request %d: %v\n", i, check("203.0.113.7"))
	}

	fmt.Println("\n== live rule management ==")
	// A rule edit is a database write; each QoS server picks it up on its
	// next rule sync, run here at once instead of waiting for a timer.
	if err := janus.Store.Put(bucket.Rule{Key: "bob", RefillRate: 1000, Capacity: 1000, Credit: 1000}); err != nil {
		log.Fatal(err)
	}
	for _, p := range janus.QoS {
		p.Master.SyncOnce()
	}
	fmt.Printf("bob upgraded; next request: %v\n", check("bob"))

	st := janus.AggregateQoSStats()
	fmt.Printf("\nstats: %d decisions, %d allowed, %d denied, %d db lookups\n",
		st.Decisions, st.Allowed, st.Denied, st.DBQueries)
}
