package admission

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// rulesOf is a rules database holding rules, one point lookup per call.
func rulesOf(rules ...bucket.Rule) Rules {
	m := make(map[string]bucket.Rule, len(rules))
	for _, r := range rules {
		m[r.Key] = r
	}
	return func(key string) (bucket.Rule, bool, error) {
		r, ok := m[key]
		return r, ok, nil
	}
}

// newTable is a table on the wall clock with no audit and a private
// registry: no socket, no goroutine.
func newTable(rules Rules, defaultRule bucket.Rule) *Table {
	return New(rules, defaultRule, false, nil, time.Now, metrics.NewRegistry(), nil)
}

func TestDecideKnownKey(t *testing.T) {
	s := newTable(rulesOf(bucket.Rule{Key: "alice", RefillRate: 0, Capacity: 3, Credit: 3}), bucket.Rule{})
	for i := 0; i < 3; i++ {
		resp := s.Decide(wire.Request{Key: "alice", Cost: 1})
		if !resp.Allow || resp.Status != wire.StatusOK {
			t.Fatalf("request %d: %+v", i, resp)
		}
	}
	resp := s.Decide(wire.Request{Key: "alice", Cost: 1})
	if resp.Allow {
		t.Fatalf("admitted beyond capacity: %+v", resp)
	}
	st := s.Stats()
	if st.Decisions != 4 || st.Allowed != 3 || st.Denied != 1 || st.DBQueries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDecideUnknownKeyDeniedByDefault(t *testing.T) {
	s := newTable(rulesOf(), bucket.Rule{})
	resp := s.Decide(wire.Request{Key: "stranger", Cost: 1})
	if resp.Allow || resp.Status != wire.StatusDefaultRule {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestDecideUnknownKeyGuestDefault(t *testing.T) {
	s := newTable(rulesOf(), bucket.Rule{RefillRate: 10, Capacity: 2, Credit: 2})
	r1 := s.Decide(wire.Request{Key: "guest", Cost: 1})
	r2 := s.Decide(wire.Request{Key: "guest", Cost: 1})
	r3 := s.Decide(wire.Request{Key: "guest", Cost: 1})
	if !r1.Allow || !r2.Allow || r3.Allow {
		t.Fatalf("guest decisions = %v %v %v", r1.Allow, r2.Allow, r3.Allow)
	}
	if r1.Status != wire.StatusDefaultRule {
		t.Fatalf("status = %v", r1.Status)
	}
	if st := s.Stats(); st.DefaultHit != 3 {
		t.Fatalf("default hits = %d, want 3", st.DefaultHit)
	}
}

func TestDecideNoStoreUsesDefault(t *testing.T) {
	s := newTable(nil, bucket.Rule{RefillRate: 1, Capacity: 1, Credit: 1})
	if resp := s.Decide(wire.Request{Key: "x"}); !resp.Allow {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestDecideZeroCostTreatedAsOne(t *testing.T) {
	s := newTable(rulesOf(bucket.Rule{Key: "k", RefillRate: 0, Capacity: 1, Credit: 1}), bucket.Rule{})
	if resp := s.Decide(wire.Request{Key: "k"}); !resp.Allow {
		t.Fatal("first request denied")
	}
	if resp := s.Decide(wire.Request{Key: "k"}); resp.Allow {
		t.Fatal("bucket not charged for zero-cost request")
	}
}

func TestDecideWeightedCost(t *testing.T) {
	s := newTable(rulesOf(bucket.Rule{Key: "k", RefillRate: 0, Capacity: 10, Credit: 10}), bucket.Rule{})
	if resp := s.Decide(wire.Request{Key: "k", Cost: 7}); !resp.Allow {
		t.Fatal("batch denied")
	}
	if resp := s.Decide(wire.Request{Key: "k", Cost: 4}); resp.Allow {
		t.Fatal("over-budget batch admitted")
	}
	if resp := s.Decide(wire.Request{Key: "k", Cost: 3}); !resp.Allow {
		t.Fatal("exact remainder denied")
	}
}

// TestDecideConcurrentConservesCredits: goroutines race on a key's first
// sight and then on its bucket; the key gets one entry, and exactly its
// capacity is admitted.
func TestDecideConcurrentConservesCredits(t *testing.T) {
	s := newTable(rulesOf(bucket.Rule{Key: "k", RefillRate: 0, Capacity: 1000, Credit: 1000}), bucket.Rule{})
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if s.Decide(wire.Request{Key: "k", Cost: 1}).Allow {
					admitted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := admitted.Load(); n != 1000 {
		t.Fatalf("admitted %d, want exactly 1000", n)
	}
}

// stats reads the decision counters the way qosserver.Stats reports them.
type stats struct{ Decisions, Allowed, Denied, DBQueries, DefaultHit int64 }

func (t *Table) Stats() stats {
	return stats{t.Decisions.Value(), t.Allowed.Value(), t.Denied.Value(), t.DBQueries.Value(), t.DefaultHit.Value()}
}

// TestImportsNoIO keeps the decision free of I/O: no file of the package
// imports a network package or the database, transport or TCP layers.
func TestImportsNoIO(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case path == "net", strings.HasPrefix(path, "net/"),
				path == "repro/internal/store", path == "repro/internal/minisql",
				path == "repro/internal/tcp", path == "repro/internal/transport":
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}

// TestMergeBesideDecisionsConserves: four goroutines decide one key while
// another min-merges, again and again, a credit just under the one it has
// just read. A merge only lowers credit, so the key admits at most C + r·t;
// a merge that read the credit and then stored it would hand back every
// decision that landed in between.
func TestMergeBesideDecisionsConserves(t *testing.T) {
	for _, rate := range []float64{0, 1000} {
		const capacity = 50_000
		rule := bucket.Rule{Key: "k", RefillRate: rate, Capacity: capacity, Credit: capacity}
		s := newTable(rulesOf(rule), bucket.Rule{})
		start := time.Now()
		var admitted atomic.Int64
		if s.Decide(wire.Request{Key: "k", Cost: 1}).Allow {
			admitted.Add(1)
		}
		e := s.Get("k")
		var deciders, merger sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			deciders.Add(1)
			go func() {
				defer deciders.Done()
				for range capacity / 2 {
					if s.Decide(wire.Request{Key: "k", Cost: 1}).Allow {
						admitted.Add(1)
					}
				}
			}()
		}
		merger.Add(1)
		go func() {
			defer merger.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				now := time.Now()
				if c := e.Credit(now); c > 1 {
					s.Merge(bucket.Rule{Key: "k", RefillRate: rate, Capacity: capacity, Credit: c - 0.001}, false, now)
				}
			}
		}()
		deciders.Wait()
		close(stop)
		merger.Wait()
		bound := capacity + rate*time.Since(start).Seconds()
		if n := float64(admitted.Load()); n > bound {
			t.Errorf("r = %v: admitted %v, over C + r·t = %.0f", rate, n, bound)
		}
	}
}
