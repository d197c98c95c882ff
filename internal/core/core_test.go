package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bucket"
)

func newJanus(t *testing.T, cfg Config) *Janus {
	t.Helper()
	j, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(j.Close)
	return j
}

func TestCheckKnownKey(t *testing.T) {
	j := newJanus(t, Config{
		Rules: []bucket.Rule{{Key: "alice", RefillRate: 0, Capacity: 3, Credit: 3}},
	})
	for i := 0; i < 3; i++ {
		if !j.Check("alice") {
			t.Fatalf("request %d denied", i)
		}
	}
	if j.Check("alice") {
		t.Fatal("over-quota admitted")
	}
	st := j.Stats()
	if st.Decisions != 4 || st.Allowed != 3 || st.Denied != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnknownKeyDefaultDeny(t *testing.T) {
	j := newJanus(t, Config{})
	if j.Check("stranger") {
		t.Fatal("unknown key admitted by zero default")
	}
}

func TestUnknownKeyGuestDefault(t *testing.T) {
	j := newJanus(t, Config{DefaultRule: bucket.LimitedGuest("", 0, 2)})
	if !j.Check("guest") || !j.Check("guest") || j.Check("guest") {
		t.Fatal("guest default rule wrong")
	}
	if j.Stats().DefaultHit == 0 {
		t.Fatal("default hits not counted")
	}
}

func TestCheckCost(t *testing.T) {
	j := newJanus(t, Config{
		Rules: []bucket.Rule{{Key: "k", RefillRate: 0, Capacity: 10, Credit: 10}},
	})
	if !j.CheckCost("k", 8) {
		t.Fatal("batch denied")
	}
	if j.CheckCost("k", 3) {
		t.Fatal("over budget admitted")
	}
	if !j.CheckCost("k", 2) {
		t.Fatal("exact remainder denied")
	}
}

func TestPartitionsConsistentPerKey(t *testing.T) {
	j := newJanus(t, Config{
		Partitions: 4,
		Rules:      []bucket.Rule{{Key: "k", RefillRate: 0, Capacity: 5, Credit: 5}},
	})
	if j.Partitions() != 4 {
		t.Fatalf("partitions = %d", j.Partitions())
	}
	// All checks for one key hit one partition's bucket: exactly 5 admits.
	allowed := 0
	for i := 0; i < 10; i++ {
		if j.Check("k") {
			allowed++
		}
	}
	if allowed != 5 {
		t.Fatalf("allowed = %d, want 5", allowed)
	}
}

func TestSetRuleTakesEffect(t *testing.T) {
	j := newJanus(t, Config{})
	if j.Check("newuser") {
		t.Fatal("admitted before rule exists")
	}
	if err := j.SetRule(bucket.Rule{Key: "newuser", RefillRate: 0, Capacity: 2, Credit: 2}); err != nil {
		t.Fatal(err)
	}
	if !j.Check("newuser") || !j.Check("newuser") || j.Check("newuser") {
		t.Fatal("new rule not applied")
	}
}

func TestDeleteRuleFallsBackToDefault(t *testing.T) {
	j := newJanus(t, Config{
		Rules: []bucket.Rule{{Key: "k", RefillRate: 1e9, Capacity: 1e9, Credit: 1e9}},
	})
	if !j.Check("k") {
		t.Fatal("initial check denied")
	}
	if _, err := j.Store().Delete("k"); err != nil {
		t.Fatal(err)
	}
	for _, s := range j.servers {
		s.SyncOnce()
	}
	if j.Check("k") {
		t.Fatal("deleted rule still admits (default is deny)")
	}
}

func TestRuleLookup(t *testing.T) {
	j := newJanus(t, Config{
		Rules: []bucket.Rule{{Key: "k", RefillRate: 7, Capacity: 70, Credit: 70}},
	})
	r, found, err := j.Rule("k")
	if err != nil || !found || r.RefillRate != 7 {
		t.Fatalf("r=%+v found=%v err=%v", r, found, err)
	}
	if _, found, _ := j.Rule("nope"); found {
		t.Fatal("ghost rule found")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	j := newJanus(t, Config{
		Rules: []bucket.Rule{{Key: "k", RefillRate: 0, Capacity: 10, Credit: 10}},
	})
	for i := 0; i < 4; i++ {
		j.Check("k")
	}
	j.Checkpoint()
	r, _, _ := j.Store().Get("k")
	if r.Credit != 6 {
		t.Fatalf("checkpointed credit = %v", r.Credit)
	}
}

func TestConcurrentChecksConserveCredits(t *testing.T) {
	j := newJanus(t, Config{
		Partitions: 4,
		Rules:      []bucket.Rule{{Key: "k", RefillRate: 0, Capacity: 1000, Credit: 1000}},
	})
	var mu sync.Mutex
	total := 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := 0; i < 500; i++ {
				if j.Check("k") {
					local++
				}
			}
			mu.Lock()
			total += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if total != 1000 {
		t.Fatalf("admitted %d, want exactly 1000", total)
	}
}

func TestManyKeysSpreadAcrossPartitions(t *testing.T) {
	var rules []bucket.Rule
	for i := 0; i < 100; i++ {
		rules = append(rules, bucket.Rule{Key: fmt.Sprintf("u%d", i), RefillRate: 0, Capacity: 1, Credit: 1})
	}
	j := newJanus(t, Config{Partitions: 8, Rules: rules})
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("u%d", i)
		if !j.Check(k) {
			t.Fatalf("%s first denied", k)
		}
		if j.Check(k) {
			t.Fatalf("%s second admitted", k)
		}
	}
	// Each partition received some keys (jump hash spreads 100 keys over 8).
	if j.Stats().Decisions != 200 {
		t.Fatalf("decisions = %d", j.Stats().Decisions)
	}
}

func TestInvalidSeedRuleRejected(t *testing.T) {
	if _, err := New(Config{Rules: []bucket.Rule{{Key: ""}}}); err == nil {
		t.Fatal("invalid seed rule accepted")
	}
}
