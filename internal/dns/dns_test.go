package dns

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// queryCount returns the number of queries s has served.
func (s *Server) queryCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queries
}

func TestQueryNXDomain(t *testing.T) {
	s := NewServer()
	if _, _, err := s.Query("nope"); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("err = %v, want ErrNXDomain", err)
	}
}

func TestSetAAndQuery(t *testing.T) {
	s := NewServer()
	s.SetA("janus.example", 30*time.Second, "10.0.0.1:80", "10.0.0.2:80")
	addrs, ttl, err := s.Query("janus.example")
	if err != nil || ttl != 30*time.Second || len(addrs) != 2 {
		t.Fatalf("addrs=%v ttl=%v err=%v", addrs, ttl, err)
	}
}

func TestRoundRobinPermutation(t *testing.T) {
	s := NewServer()
	s.SetA("rr.example", time.Second, "a", "b", "c")
	var firsts []string
	for i := 0; i < 6; i++ {
		addrs, _, err := s.Query("rr.example")
		if err != nil {
			t.Fatal(err)
		}
		firsts = append(firsts, addrs[0])
	}
	want := []string{"a", "b", "c", "a", "b", "c"}
	for i := range want {
		if firsts[i] != want[i] {
			t.Fatalf("firsts = %v, want %v", firsts, want)
		}
	}
	// Each answer contains the full set.
	addrs, _, _ := s.Query("rr.example")
	seen := map[string]bool{}
	for _, a := range addrs {
		seen[a] = true
	}
	if len(seen) != 3 {
		t.Fatalf("answer missing addresses: %v", addrs)
	}
}

func TestAddAAndRemoveA(t *testing.T) {
	s := NewServer()
	s.AddA("n", time.Second, "a")
	s.AddA("n", time.Second, "b", "c")
	addrs, _, _ := s.Query("n")
	if len(addrs) != 3 {
		t.Fatalf("addrs = %v", addrs)
	}
	s.RemoveA("n", "b")
	addrs, _, _ = s.Query("n")
	if len(addrs) != 2 {
		t.Fatalf("addrs after remove = %v", addrs)
	}
	for _, a := range addrs {
		if a == "b" {
			t.Fatal("removed address still present")
		}
	}
	s.RemoveA("missing", "x") // no panic
}

func TestDelete(t *testing.T) {
	s := NewServer()
	s.SetA("n", time.Second, "a")
	s.Delete("n")
	if _, _, err := s.Query("n"); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("err = %v", err)
	}
}

func TestFailoverFlipsToSecondaryAndBack(t *testing.T) {
	s := NewServer()
	defer s.Close()
	var healthy atomic.Bool
	healthy.Store(true)
	s.SetFailover("db.example", time.Second, "primary:1", "standby:1",
		func(addr string) bool { return healthy.Load() }, 5*time.Millisecond)
	addrs, _, err := s.Query("db.example")
	if err != nil || addrs[0] != "primary:1" {
		t.Fatalf("initial: %v %v", addrs, err)
	}
	healthy.Store(false)
	if _, err := s.CheckNow("db.example"); err != nil {
		t.Fatal(err)
	}
	addrs, _, _ = s.Query("db.example")
	if addrs[0] != "standby:1" {
		t.Fatalf("after failure: %v", addrs)
	}
	healthy.Store(true)
	s.CheckNow("db.example")
	addrs, _, _ = s.Query("db.example")
	if addrs[0] != "primary:1" {
		t.Fatalf("after recovery: %v", addrs)
	}
}

func TestFailoverBackgroundLoop(t *testing.T) {
	s := NewServer()
	defer s.Close()
	var healthy atomic.Bool
	healthy.Store(true)
	s.SetFailover("svc", time.Second, "p", "s",
		func(string) bool { return healthy.Load() }, 2*time.Millisecond)
	healthy.Store(false)
	deadline := time.Now().Add(2 * time.Second)
	for {
		addrs, _, _ := s.Query("svc")
		if addrs[0] == "s" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background health loop never flipped the record")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCheckNowOnPlainRecord(t *testing.T) {
	s := NewServer()
	s.SetA("plain", time.Second, "a")
	if _, err := s.CheckNow("plain"); err == nil {
		t.Fatal("CheckNow on non-failover record succeeded")
	}
}

func TestSetAReplacesFailover(t *testing.T) {
	s := NewServer()
	defer s.Close()
	s.SetFailover("n", time.Second, "p", "s", func(string) bool { return true }, time.Millisecond)
	s.SetA("n", time.Second, "x")
	addrs, _, _ := s.Query("n")
	if addrs[0] != "x" {
		t.Fatalf("addrs = %v", addrs)
	}
}

func TestResolverCachesUntilTTL(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	s := newServerWithClock(clock)
	s.SetA("n", 30*time.Second, "a", "b")
	r := newResolverWithClock(s, clock)

	first, err := r.ResolveOne("n")
	if err != nil {
		t.Fatal(err)
	}
	// Within the TTL every resolution hits the cache: same first address,
	// no extra server queries.
	q0 := s.queryCount()
	for i := 0; i < 10; i++ {
		now = now.Add(time.Second)
		got, err := r.ResolveOne("n")
		if err != nil || got != first {
			t.Fatalf("cached resolve changed: %q vs %q (err %v)", got, first, err)
		}
	}
	if s.queryCount() != q0 {
		t.Fatalf("cache miss during TTL: %d extra queries", s.queryCount()-q0)
	}
	// After expiry the next query re-fetches and round-robin advances.
	now = now.Add(30 * time.Second)
	got, err := r.ResolveOne("n")
	if err != nil {
		t.Fatal(err)
	}
	if got == first {
		t.Fatalf("expected rotated answer after TTL, still %q", got)
	}
	if s.queryCount() != q0+1 {
		t.Fatalf("queries = %d, want %d", s.queryCount(), q0+1)
	}
}

func TestResolverErrorPassthrough(t *testing.T) {
	s := NewServer()
	r := NewResolver(s)
	if _, err := r.ResolveOne("missing"); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("err = %v", err)
	}
	s.SetA("empty", time.Second) // record with no addresses
	if _, err := r.ResolveOne("empty"); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("empty record err = %v", err)
	}
}

func TestUncachedResolverAlwaysQueries(t *testing.T) {
	s := NewServer()
	s.SetA("n", time.Hour, "a", "b")
	r := NewUncachedResolver(s)
	a, _ := r.ResolveOne("n")
	b, _ := r.ResolveOne("n")
	if a == b {
		t.Fatal("uncached resolver returned cached answer")
	}
	if _, err := r.ResolveOne("missing"); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("err = %v", err)
	}
	s.SetA("empty", time.Second)
	if _, err := r.ResolveOne("empty"); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("empty err = %v", err)
	}
}

func TestConcurrentQueriesAndUpdates(t *testing.T) {
	s := NewServer()
	defer s.Close()
	s.SetA("n", time.Millisecond, "a", "b", "c")
	r := NewResolver(s)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				switch i % 4 {
				case 0:
					r.resolve("n")
				case 1:
					s.Query("n")
				case 2:
					s.AddA("n", time.Millisecond, "d")
					s.RemoveA("n", "d")
				case 3:
					s.Names()
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNames(t *testing.T) {
	s := NewServer()
	s.SetA("b", time.Second, "1")
	s.SetA("a", time.Second, "1")
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestCloseStopsHealthLoops(t *testing.T) {
	s := NewServer()
	var checks atomic.Int64
	s.SetFailover("n", time.Second, "p", "s",
		func(string) bool { checks.Add(1); return true }, time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	s.Close()
	after := checks.Load()
	time.Sleep(20 * time.Millisecond)
	if checks.Load() != after {
		t.Fatal("health loop still running after Close")
	}
}
