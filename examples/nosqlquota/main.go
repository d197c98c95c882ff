// NoSQL quota: the paper's §IV use case where "an end user might purchase
// different access rates for different databases in its account, then the
// QoS key can be the combination of the user identification and the
// database name".
//
//	go run ./examples/nosqlquota
//
// A toy NoSQL service (backed by the memcache substrate) checks an
// in-process Janus deployment with the key "<user>/<database>" before every
// operation.
package main

import (
	"fmt"
	"log"

	"repro/internal/bucket"
	"repro/internal/cluster"
	"repro/internal/memcache"
)

// nosqlService is the execution engine of Fig 4b: auth is out of scope,
// QoS gates every call, the memcache substrate stores the data.
type nosqlService struct {
	janus *cluster.Cluster
	data  *memcache.Cache
}

func quotaKey(user, database string) string { return user + "/" + database }

// admit asks Janus whether user may run one operation on database.
func (s *nosqlService) admit(user, database string) error {
	ok, err := s.janus.Check(quotaKey(user, database))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("throttled: %s over quota on %s", user, database)
	}
	return nil
}

func (s *nosqlService) Put(user, database, key, value string) error {
	if err := s.admit(user, database); err != nil {
		return err
	}
	s.data.Set(database+"/"+key, 0, 0, []byte(value))
	return nil
}

func (s *nosqlService) Get(user, database, key string) (string, error) {
	if err := s.admit(user, database); err != nil {
		return "", err
	}
	it, ok := s.data.Get(database + "/" + key)
	if !ok {
		return "", fmt.Errorf("not found: %s/%s", database, key)
	}
	return string(it.Value), nil
}

func main() {
	janus, err := cluster.New(cluster.Config{
		QoSServers: 2,
		Rules: []bucket.Rule{
			// acme bought a big allowance on its production database and a
			// tiny one on analytics.
			{Key: "acme/production", RefillRate: 1000, Capacity: 1000, Credit: 1000},
			{Key: "acme/analytics", RefillRate: 1, Capacity: 3, Credit: 3},
		},
		// Databases without a purchased plan are denied.
	})
	if err != nil {
		log.Fatal(err)
	}
	defer janus.Close()

	svc := &nosqlService{janus: janus, data: memcache.NewCache()}

	fmt.Println("== production database: high quota ==")
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("order-%d", i)
		if err := svc.Put("acme", "production", k, "paid"); err != nil {
			log.Fatal(err)
		}
	}
	v, err := svc.Get("acme", "production", "order-3")
	fmt.Printf("5 puts + 1 get OK; order-3 = %q (err=%v)\n", v, err)

	fmt.Println("\n== analytics database: 3-credit quota ==")
	for i := 0; i < 5; i++ {
		err := svc.Put("acme", "analytics", fmt.Sprintf("event-%d", i), "x")
		fmt.Printf("put event-%d: %v\n", i, errString(err))
	}

	fmt.Println("\n== unknown database: denied by default rule ==")
	fmt.Printf("put: %v\n", errString(svc.Put("acme", "staging", "k", "v")))

	fmt.Println("\n== upgrade the analytics plan at runtime ==")
	if err := janus.Store.Put(bucket.Rule{Key: "acme/analytics", RefillRate: 100, Capacity: 100, Credit: 100}); err != nil {
		log.Fatal(err)
	}
	for _, p := range janus.QoS {
		p.Master.SyncOnce() // the rule sync a timer would run
	}
	fmt.Printf("put after upgrade: %v\n", errString(svc.Put("acme", "analytics", "event-9", "x")))

	st := janus.AggregateQoSStats()
	fmt.Printf("\nJanus stats: %d decisions, %d allowed, %d denied\n", st.Decisions, st.Allowed, st.Denied)
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}
