package cluster

import (
	"sync"
	"testing"
	"time"
)

// TestDNSClientPinnedWithinTTL reproduces the §V-A client-side observation
// on the real stack: a DNS-mode client caches its resolution, so all its
// requests within one TTL land on the same router node.
func TestDNSClientPinnedWithinTTL(t *testing.T) {
	c := newCluster(t, Config{
		Routers: 3,
		Mode:    DNS,
		DNSTTL:  time.Hour, // effectively permanent for the test
		Rules:   rules(1, 1e9, 1e9),
	})
	// A single client with an OS-style caching resolver.
	checker := c.Checker()
	for i := 0; i < 30; i++ {
		if ok, err := checker.Check("user-0"); err != nil || !ok {
			t.Fatalf("request %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Exactly one router saw all the traffic.
	active := 0
	for _, r := range c.Routers {
		if r.Stats().Requests > 0 {
			active++
			if r.Stats().Requests != 30 {
				t.Fatalf("router served %d, want 30", r.Stats().Requests)
			}
		}
	}
	if active != 1 {
		t.Fatalf("active routers = %d, want 1 (TTL pinning)", active)
	}
}

// TestDNSClientRotatesAfterTTL shows the counterpart: once the TTL expires
// the client re-resolves and the round-robin answer moves it to the next
// router.
func TestDNSClientRotatesAfterTTL(t *testing.T) {
	c := newCluster(t, Config{
		Routers: 2,
		Mode:    DNS,
		DNSTTL:  time.Nanosecond, // immediate expiry
		Rules:   rules(1, 1e9, 1e9),
	})
	checker := c.Checker()
	for i := 0; i < 20; i++ {
		if ok, err := checker.Check("user-0"); err != nil || !ok {
			t.Fatalf("request %d: ok=%v err=%v", i, ok, err)
		}
	}
	for i, r := range c.Routers {
		if r.Stats().Requests != 10 {
			t.Fatalf("router %d served %d, want 10 (round robin across TTL expiries)", i, r.Stats().Requests)
		}
	}
}

// TestCheckerConcurrentDNS: one DNS-mode checker shared by several
// goroutines (as loadgen.RunClosedLoop shares it) while the TTL expires
// under them, so consecutive checks go to different routers. Run under
// -race: the checker used to keep the resolved address in a shared field.
func TestCheckerConcurrentDNS(t *testing.T) {
	c := newCluster(t, Config{
		Routers: 2,
		Mode:    DNS,
		DNSTTL:  time.Nanosecond,
		Rules:   rules(1, 1e9, 1e9),
	})
	checker := c.Checker()
	const workers, each = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if ok, err := checker.Check("user-0"); err != nil || !ok {
					t.Errorf("ok=%v err=%v", ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var served int64
	for _, r := range c.Routers {
		if r.Stats().Requests == 0 {
			t.Error("a router saw no traffic although the TTL expired on every check")
		}
		served += int64(r.Stats().Requests)
	}
	if served != workers*each {
		t.Errorf("routers served %d checks, want %d", served, workers*each)
	}
}
