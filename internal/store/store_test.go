package store

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/bucket"
	"repro/internal/minisql"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s := New(minisql.NewEngine())
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInitIdempotent(t *testing.T) {
	s := newStore(t)
	if err := s.Init(); err != nil {
		t.Fatalf("second Init: %v", err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newStore(t)
	want := bucket.Rule{Key: "user-1", RefillRate: 100, Capacity: 1000, Credit: 800}
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	got, found, err := s.Get("user-1")
	if err != nil || !found {
		t.Fatalf("found=%v err=%v", found, err)
	}
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestGetMissing(t *testing.T) {
	s := newStore(t)
	_, found, err := s.Get("ghost")
	if err != nil || found {
		t.Fatalf("found=%v err=%v", found, err)
	}
}

func TestPutRejectsInvalidRule(t *testing.T) {
	s := newStore(t)
	if err := s.Put(bucket.Rule{Key: "", RefillRate: 1, Capacity: 1}); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.Put(bucket.Rule{Key: "k", RefillRate: -1, Capacity: 1}); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestPutReplacesExisting(t *testing.T) {
	s := newStore(t)
	s.Put(bucket.Rule{Key: "k", RefillRate: 1, Capacity: 10, Credit: 10})
	s.Put(bucket.Rule{Key: "k", RefillRate: 2, Capacity: 20, Credit: 5})
	got, _, _ := s.Get("k")
	if got.RefillRate != 2 || got.Capacity != 20 || got.Credit != 5 {
		t.Fatalf("got %+v", got)
	}
	if n, _ := s.Count(); n != 1 {
		t.Fatalf("count = %d", n)
	}
}

func TestDelete(t *testing.T) {
	s := newStore(t)
	s.Put(bucket.Rule{Key: "k", RefillRate: 1, Capacity: 1, Credit: 1})
	ok, err := s.Delete("k")
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	ok, err = s.Delete("k")
	if err != nil || ok {
		t.Fatalf("second delete: ok=%v err=%v", ok, err)
	}
}

// TestChangedSinceReadsWholeTable: from the zero cursor the change feed is a
// reset scan of the whole table, one page per FeedPage rules, each rule once.
func TestChangedSinceReadsWholeTable(t *testing.T) {
	s := newStore(t)
	const n = minisql.FeedPage + 25
	for i := 0; i < n; i++ {
		s.Put(bucket.Rule{Key: fmt.Sprintf("k%d", i), RefillRate: float64(i), Capacity: 100, Credit: 100})
	}
	seen := map[string]bool{}
	var cur minisql.Cursor
	for page := 0; ; page++ {
		ch, err := s.ChangedSince(cur)
		if err != nil {
			t.Fatal(err)
		}
		if ch.Reset != (page == 0) || len(ch.Deleted) != 0 {
			t.Fatalf("page %d: reset %v, %d deletes; want a reset on the first page only, no deletes", page, ch.Reset, len(ch.Deleted))
		}
		for _, r := range ch.Rules {
			if seen[r.Key] {
				t.Fatalf("%s read twice", r.Key)
			}
			seen[r.Key] = true
			if err := r.Validate(); err != nil {
				t.Errorf("invalid rule loaded: %v", err)
			}
		}
		if cur = ch.Next; !ch.More {
			if page != 1 {
				t.Fatalf("%d rules read in %d pages, want 2", n, page+1)
			}
			break
		}
	}
	if len(seen) != n {
		t.Fatalf("read %d rules, want %d", len(seen), n)
	}
	if ch, err := s.ChangedSince(cur); err != nil || ch.Reset || ch.More || len(ch.Rules) != 0 || ch.Next != cur {
		t.Fatalf("read on from the end: %+v, %v; want an empty page at the same cursor", ch, err)
	}
}

func TestCheckpoint(t *testing.T) {
	s := newStore(t)
	s.Put(bucket.Rule{Key: "k", RefillRate: 1, Capacity: 100, Credit: 100})
	if err := s.checkpoint("k", 42.5); err != nil {
		t.Fatal(err)
	}
	got, _, _ := s.Get("k")
	if got.Credit != 42.5 {
		t.Fatalf("credit = %v", got.Credit)
	}
	// Checkpointing an unknown (default-rule) key is a silent no-op.
	if err := s.checkpoint("unknown", 1); err != nil {
		t.Fatalf("checkpoint unknown key: %v", err)
	}
}

func TestCheckpointBatch(t *testing.T) {
	s := newStore(t)
	for i := 0; i < 5; i++ {
		s.Put(bucket.Rule{Key: fmt.Sprintf("k%d", i), RefillRate: 1, Capacity: 100, Credit: 100})
	}
	batch := map[string]float64{"k0": 1, "k1": 2, "k4": 5, "ghost": 9}
	if err := s.CheckpointBatch(batch); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{"k0": 1, "k1": 2, "k2": 100, "k4": 5} {
		got, _, _ := s.Get(k)
		if got.Credit != want {
			t.Errorf("%s credit = %v, want %v", k, got.Credit, want)
		}
	}
}

func TestCount(t *testing.T) {
	s := newStore(t)
	if n, err := s.Count(); err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	s.Put(bucket.Rule{Key: "a", RefillRate: 1, Capacity: 1, Credit: 1})
	if n, _ := s.Count(); n != 1 {
		t.Fatalf("n=%d", n)
	}
}

// failingExecutor returns an error for every statement.
type failingExecutor struct{}

func (failingExecutor) Execute(string, ...minisql.Value) (minisql.Result, error) {
	return minisql.Result{}, errors.New("db down")
}

func TestErrorsPropagate(t *testing.T) {
	s := New(failingExecutor{})
	if err := s.Init(); err == nil {
		t.Error("Init")
	}
	if _, _, err := s.Get("k"); err == nil {
		t.Error("Get")
	}
	if err := s.Put(bucket.Rule{Key: "k", RefillRate: 1, Capacity: 1, Credit: 1}); err == nil {
		t.Error("Put")
	}
	if _, err := s.Delete("k"); err == nil {
		t.Error("Delete")
	}
	if err := s.checkpoint("k", 1); err == nil {
		t.Error("Checkpoint")
	}
	if err := s.CheckpointBatch(map[string]float64{"k": 1}); err == nil {
		t.Error("CheckpointBatch")
	}
	if _, err := s.Count(); err == nil {
		t.Error("Count")
	}
	if _, err := s.ChangedSince(minisql.Cursor{}); err == nil {
		t.Error("ChangedSince")
	}
}

func TestStoreOverTCP(t *testing.T) {
	// The same DAO works over the network client, as in the real deployment.
	engine := minisql.NewEngine()
	srv, err := minisql.NewServer(engine, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := minisql.NewPool(srv.Addr(), 2)
	defer pool.Close()
	s := New(pool)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	want := bucket.Rule{Key: "net", RefillRate: 7, Capacity: 70, Credit: 70}
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	got, found, err := s.Get("net")
	if err != nil || !found || got != want {
		t.Fatalf("got %+v found=%v err=%v", got, found, err)
	}
}

// countingExecutor counts the statements it forwards.
type countingExecutor struct {
	Executor
	n int
}

func (c *countingExecutor) Execute(sql string, args ...minisql.Value) (minisql.Result, error) {
	c.n++
	return c.Executor.Execute(sql, args...)
}

// TestPutAll: rules go out in multi-row statements, and an invalid rule
// anywhere in the list means nothing is written.
func TestPutAll(t *testing.T) {
	db := &countingExecutor{Executor: minisql.NewEngine()}
	s := New(db)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	rules := make([]bucket.Rule, 1000)
	for i := range rules {
		rules[i] = bucket.Rule{Key: fmt.Sprintf("r%d", i), RefillRate: 1, Capacity: 10, Credit: float64(i % 10)}
	}
	db.n = 0
	if err := s.PutAll(rules); err != nil {
		t.Fatal(err)
	}
	if db.n > 4 {
		t.Fatalf("1000 rules took %d statements, want <= 4", db.n)
	}
	if n, _ := s.Count(); n != 1000 {
		t.Fatalf("count = %d", n)
	}
	if got, _, _ := s.Get("r999"); got != rules[999] {
		t.Fatalf("r999 = %+v, want %+v", got, rules[999])
	}

	bad := append([]bucket.Rule{{Key: "fresh", RefillRate: 1, Capacity: 1}}, rules...)
	bad = append(bad, bucket.Rule{Key: ""})
	db.n = 0
	if err := s.PutAll(bad); err == nil {
		t.Fatal("invalid rule accepted")
	}
	if db.n != 0 {
		t.Fatalf("PutAll with an invalid rule sent %d statements", db.n)
	}
	if _, found, _ := s.Get("fresh"); found {
		t.Fatal("a rule before the invalid one was written")
	}
}
