package qosserver

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/minisql"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

func newDB(t *testing.T, rules ...bucket.Rule) *store.Store {
	t.Helper()
	s := store.New(minisql.NewEngine())
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutAll(rules); err != nil {
		t.Fatal(err)
	}
	return s
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

var clientCfg = transport.Config{Timeout: 100 * time.Millisecond, Retries: 5}

func TestDecideKnownKey(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "alice", RefillRate: 0, Capacity: 3, Credit: 3})
	s := newServer(t, Config{Store: db})
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
	db := newDB(t)
	s := newServer(t, Config{Store: db})
	resp := s.Decide(wire.Request{Key: "stranger", Cost: 1})
	if resp.Allow || resp.Status != wire.StatusDefaultRule {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestDecideUnknownKeyGuestDefault(t *testing.T) {
	db := newDB(t)
	s := newServer(t, Config{Store: db, DefaultRule: bucket.Rule{RefillRate: 10, Capacity: 2, Credit: 2}})
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
	s := newServer(t, Config{DefaultRule: bucket.Rule{RefillRate: 1, Capacity: 1, Credit: 1}})
	if resp := s.Decide(wire.Request{Key: "x"}); !resp.Allow {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestDecideZeroCostTreatedAsOne(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "k", RefillRate: 0, Capacity: 1, Credit: 1})
	s := newServer(t, Config{Store: db})
	if resp := s.Decide(wire.Request{Key: "k"}); !resp.Allow {
		t.Fatal("first request denied")
	}
	if resp := s.Decide(wire.Request{Key: "k"}); resp.Allow {
		t.Fatal("bucket not charged for zero-cost request")
	}
}

func TestDecideWeightedCost(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "k", RefillRate: 0, Capacity: 10, Credit: 10})
	s := newServer(t, Config{Store: db})
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
	db := newDB(t, bucket.Rule{Key: "k", RefillRate: 0, Capacity: 1000, Credit: 1000})
	s := newServer(t, Config{Store: db})
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

func TestUDPEndToEnd(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "alice", RefillRate: 0, Capacity: 5, Credit: 5})
	s := newServer(t, Config{Store: db})
	c, err := transport.Dial(s.Addr(), clientCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	allowed := 0
	for i := 0; i < 8; i++ {
		resp, err := c.Do(wire.Request{Key: "alice", Cost: 1})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Allow {
			allowed++
		}
	}
	if allowed != 5 {
		t.Fatalf("allowed = %d, want 5", allowed)
	}
}

func TestUDPConcurrentClients(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "k", RefillRate: 0, Capacity: 1000, Credit: 1000})
	s := newServer(t, Config{Store: db, Workers: 4})
	var wg sync.WaitGroup
	var mu sync.Mutex
	totalAllowed := 0
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := transport.Dial(s.Addr(), clientCfg)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			local := 0
			for i := 0; i < 500; i++ {
				resp, err := c.Do(wire.Request{Key: "k", Cost: 1})
				if err == nil && resp.Allow {
					local++
				}
			}
			mu.Lock()
			totalAllowed += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	// Conservation: no more than capacity admitted (no refill). Retries
	// may re-send a request whose response was lost, so a small duplicate
	// charge is possible but the cap can never be exceeded.
	if totalAllowed > 1000 {
		t.Fatalf("allowed = %d > capacity 1000", totalAllowed)
	}
	if totalAllowed < 900 {
		t.Fatalf("allowed = %d, lost too many", totalAllowed)
	}
}

func TestRefillOverUDP(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "k", RefillRate: 1000, Capacity: 10, Credit: 0})
	s := newServer(t, Config{Store: db})
	c, err := transport.Dial(s.Addr(), clientCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// First request installs the bucket (empty) and is denied.
	resp, err := c.Do(wire.Request{Key: "k", Cost: 10})
	if err != nil || resp.Allow {
		t.Fatalf("install request: resp=%+v err=%v", resp, err)
	}
	time.Sleep(20 * time.Millisecond) // accrue ~20 credits, clamp at 10
	resp, err = c.Do(wire.Request{Key: "k", Cost: 10})
	if err != nil || !resp.Allow {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
}

func TestSyncPicksUpRuleUpdate(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "k", RefillRate: 0, Capacity: 1, Credit: 1})
	s := newServer(t, Config{Store: db})
	s.Decide(wire.Request{Key: "k"}) // install
	// Rule is edited in the database.
	if err := db.Put(bucket.Rule{Key: "k", RefillRate: 0, Capacity: 100, Credit: 100}); err != nil {
		t.Fatal(err)
	}
	s.SyncOnce()
	b := s.table.Get("k")
	if b == nil || b.Capacity() != 100 {
		t.Fatalf("bucket not updated: %v", b)
	}
}

func TestSyncEvictsDeletedRule(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "k", RefillRate: 1, Capacity: 1, Credit: 1})
	s := newServer(t, Config{Store: db})
	s.Decide(wire.Request{Key: "k"})
	if _, err := db.Delete("k"); err != nil {
		t.Fatal(err)
	}
	s.SyncOnce()
	if s.table.Get("k") != nil {
		t.Fatal("deleted rule still resident")
	}
	// Next request applies the default (deny-all) rule.
	if resp := s.Decide(wire.Request{Key: "k"}); resp.Allow || resp.Status != wire.StatusDefaultRule {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestSyncUpgradesDefaultKeyToRealRule(t *testing.T) {
	db := newDB(t)
	s := newServer(t, Config{Store: db})
	s.Decide(wire.Request{Key: "new-user"}) // default (deny) installed
	// Rule appears in the database (new purchase).
	if err := db.Put(bucket.Rule{Key: "new-user", RefillRate: 10, Capacity: 10, Credit: 10}); err != nil {
		t.Fatal(err)
	}
	s.SyncOnce()
	resp := s.Decide(wire.Request{Key: "new-user"})
	if !resp.Allow || resp.Status != wire.StatusOK {
		t.Fatalf("resp = %+v", resp)
	}
}

// countingExecutor counts the statements a store sends.
type countingExecutor struct {
	store.Executor
	n atomic.Int64
}

func (c *countingExecutor) Execute(sql string, args ...minisql.Value) (minisql.Result, error) {
	c.n.Add(1)
	return c.Executor.Execute(sql, args...)
}

func syncCounters(s *Server) (queries, reconciles int64) {
	return s.Registry().Counter("janus_qos_sync_queries_total", "").Value(),
		s.Registry().Counter("janus_qos_sync_reconciles_total", "").Value()
}

// TestSyncQueriesPerPass: after the first pass, a sync pass costs one
// statement per page of changed rules, not one per resident key, and still
// applies every kind of edit.
// deadExecutor is a database out of reach: every statement fails.
type deadExecutor struct{}

func (deadExecutor) Execute(string, ...minisql.Value) (minisql.Result, error) {
	return minisql.Result{}, errors.New("database unreachable")
}

// TestFailedSyncGoesStale: a pass that cannot read the database must not
// count as a sync, or /readyz never reports rules_sync_stale while the
// database is down.
func TestFailedSyncGoesStale(t *testing.T) {
	var nowNs atomic.Int64
	nowNs.Store(time.Unix(1000, 0).UnixNano())
	s := newServer(t, Config{
		Store:        store.New(deadExecutor{}),
		SyncInterval: time.Hour,
		Clock:        func() time.Time { return time.Unix(0, nowNs.Load()) },
	})
	nowNs.Add(int64(10 * time.Minute))
	s.SyncOnce()
	if age, enabled := s.SyncAge(); !enabled || age < 10*time.Minute {
		t.Fatalf("SyncAge = %v (enabled %v) after a failed pass 10m after boot, want >= 10m", age, enabled)
	}
}

func TestSyncQueriesPerPass(t *testing.T) {
	const resident = 10000
	rules := make([]bucket.Rule, resident)
	for i := range rules {
		rules[i] = bucket.Rule{Key: fmt.Sprintf("k%05d", i), RefillRate: 1, Capacity: 10, Credit: 10}
	}
	engine := minisql.NewEngine()
	direct := store.New(engine) // seeding and edits bypass the count
	if err := direct.Init(); err != nil {
		t.Fatal(err)
	}
	if err := direct.PutAll(rules); err != nil {
		t.Fatal(err)
	}
	counted := &countingExecutor{Executor: engine}
	s := newServer(t, Config{Store: store.New(counted)})
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	const pages = resident/minisql.FeedPage + 1
	if q, r := syncCounters(s); r != 1 || q != pages || counted.n.Load() != pages || s.TableLen() != resident {
		t.Fatalf("preload: %d statements, %d pages, %d reconciles, %d keys; want %d pages, 1 reconcile, %d keys",
			counted.n.Load(), q, r, s.TableLen(), pages, resident)
	}
	s.Decide(wire.Request{Key: "new-user"}) // a default-rule key
	s.SyncOnce()
	if q, r := syncCounters(s); r != 1 || q != pages+1 || counted.n.Load() != pages+2 { // +1 for new-user's fetch
		t.Fatalf("first pass after preload: %d statements, %d pages, %d reconciles; want 1 page, no reconcile",
			counted.n.Load()-pages-1, q-pages, r-1)
	}

	checkpointed := s.table.Get("k09999")
	for _, pass := range []struct {
		name    string
		edit    func() error
		maxStmt int64
	}{
		{"100 edits", func() error {
			for i := 0; i < 100; i++ {
				if err := direct.Put(bucket.Rule{Key: rules[i].Key, RefillRate: 1, Capacity: 99, Credit: 99}); err != nil {
					return err
				}
			}
			if err := direct.CheckpointBatch(map[string]float64{"k09999": 3}); err != nil {
				return err
			}
			return direct.Put(bucket.Rule{Key: "new-user", RefillRate: 10, Capacity: 10, Credit: 10})
		}, 2},
		// A checkpoint is a write like any other, but rewriting a credit
		// the database already holds is not a change: only k09999's
		// differs. A checkpoint after every key consumed changes every
		// credit, and the next pass reads them all, a page per FeedPage.
		{"checkpoint of unchanged credits", func() error { s.checkpointOnce(); return nil }, 1},
		{"checkpoint after every key consumed", func() error {
			for _, r := range rules {
				s.Decide(wire.Request{Key: r.Key, Cost: 1})
			}
			s.checkpointOnce()
			return nil
		}, resident/minisql.FeedPage + 1},
		{"no edits", func() error { return nil }, 1},
		{"100 deletes", func() error {
			for i := 100; i < 200; i++ {
				if _, err := direct.Delete(rules[i].Key); err != nil {
					return err
				}
			}
			return nil
		}, 2},
	} {
		if err := pass.edit(); err != nil {
			t.Fatal(err)
		}
		sent0 := counted.n.Load()
		q0, _ := syncCounters(s)
		s.SyncOnce()
		q, r := syncCounters(s)
		if sent := counted.n.Load() - sent0; sent > pass.maxStmt || sent != q-q0 {
			t.Fatalf("%s: pass sent %d statements (janus_qos_sync_queries_total +%d), want <= %d", pass.name, sent, q-q0, pass.maxStmt)
		}
		if r != 1 {
			t.Fatalf("%s: %d reconciles, want 1", pass.name, r)
		}
	}
	for i := 0; i < 100; i++ {
		if b := s.table.Get(rules[i].Key); b == nil || b.Capacity() != 99 {
			t.Fatalf("edited %s not reinstalled: %v", rules[i].Key, b)
		}
	}
	for i := 100; i < 200; i++ {
		if s.table.Get(rules[i].Key) != nil {
			t.Fatalf("deleted %s still resident", rules[i].Key)
		}
	}
	if s.table.Get("k09999") != checkpointed {
		t.Fatal("a checkpointed credit replaced an unchanged bucket")
	}
	if resp := s.Decide(wire.Request{Key: "new-user"}); !resp.Allow || resp.Status != wire.StatusOK {
		t.Fatalf("default key did not get its new rule: %+v", resp)
	}
}

// TestSyncConcurrentPasses: passes from several goroutines, beside edits,
// share one cursor; once the edits stop, one more pass leaves every rule at
// its last value.
func TestSyncConcurrentPasses(t *testing.T) {
	rules := make([]bucket.Rule, 50)
	for i := range rules {
		rules[i] = bucket.Rule{Key: fmt.Sprintf("k%d", i), RefillRate: 1, Capacity: 10, Credit: 10}
	}
	db := newDB(t, rules...)
	s := newServer(t, Config{Store: db})
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s.SyncOnce()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		r := rules[i%len(rules)]
		r.Capacity = float64(11 + i)
		if err := db.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	s.SyncOnce()
	for i, r := range rules {
		if b := s.table.Get(r.Key); b == nil || b.Capacity() != float64(11+150+i) {
			t.Fatalf("%s: %v, want capacity %d", r.Key, b, 11+150+i)
		}
	}
}

// TestSyncTombstoneOverflow: when more rules are deleted between two passes
// than the database keeps tombstones for, the pass reconciles and still
// evicts every deleted key.
func TestSyncTombstoneOverflow(t *testing.T) {
	n := minisql.Tombstones + 100
	rules := make([]bucket.Rule, n)
	for i := range rules {
		rules[i] = bucket.Rule{Key: fmt.Sprintf("k%05d", i), RefillRate: 1, Capacity: 10, Credit: 10}
	}
	db := newDB(t, rules...)
	s := newServer(t, Config{Store: db})
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	s.SyncOnce()
	for _, r := range rules[10:] {
		if _, err := db.Delete(r.Key); err != nil {
			t.Fatal(err)
		}
	}
	s.SyncOnce()
	if s.TableLen() != 10 {
		t.Fatalf("%d keys resident after deleting all but 10", s.TableLen())
	}
	for _, r := range rules[:10] {
		if s.table.Get(r.Key) == nil {
			t.Fatalf("surviving rule %s evicted", r.Key)
		}
	}
	if _, r := syncCounters(s); r != 2 {
		t.Fatalf("%d reconciles, want 2 (preload, forgotten deletes)", r)
	}
}

// afterFirstPage runs hook once, after the first change-feed page the store
// reads.
type afterFirstPage struct {
	store.Executor
	hook func()
	once sync.Once
}

func (a *afterFirstPage) Execute(sql string, args ...minisql.Value) (minisql.Result, error) {
	res, err := a.Executor.Execute(sql, args...)
	if strings.HasPrefix(sql, "SELECT CHANGES") {
		a.once.Do(a.hook)
	}
	return res, err
}

// TestResetScanRestartsOnForgottenDeletes: more rows are deleted between two
// pages of a reset scan than the database keeps tombstones for, so the scan
// cannot read on; it starts again, and the deleted keys it had already read
// on its first page leave the table.
func TestResetScanRestartsOnForgottenDeletes(t *testing.T) {
	const deleted = minisql.Tombstones + 1
	rules := make([]bucket.Rule, deleted+600)
	for i := range rules {
		rules[i] = bucket.Rule{Key: fmt.Sprintf("k%05d", i), RefillRate: 1, Capacity: 10, Credit: 10}
	}
	engine := minisql.NewEngine()
	direct := store.New(engine)
	if err := direct.Init(); err != nil {
		t.Fatal(err)
	}
	if err := direct.PutAll(rules); err != nil {
		t.Fatal(err)
	}
	hooked := &afterFirstPage{Executor: engine, hook: func() {
		for _, r := range rules[:deleted] {
			if _, err := direct.Delete(r.Key); err != nil {
				t.Error(err)
			}
		}
	}}
	s := newServer(t, Config{Store: store.New(hooked)})
	resident := []int{0, 1, 100, deleted - 1, deleted, len(rules) - 1}
	for _, i := range resident {
		s.Decide(wire.Request{Key: rules[i].Key})
	}
	s.SyncOnce() // no cursor yet: a reset scan
	for _, i := range resident {
		if got, want := s.table.Get(rules[i].Key) != nil, i >= deleted; got != want {
			t.Errorf("%s resident = %v, want %v", rules[i].Key, got, want)
		}
	}
	if _, r := syncCounters(s); r != 2 {
		t.Fatalf("%d reset scans, want 2 (the first, and its restart)", r)
	}
}

func TestCheckpointWritesCreditsBack(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "k", RefillRate: 0, Capacity: 10, Credit: 10})
	s := newServer(t, Config{Store: db})
	for i := 0; i < 4; i++ {
		s.Decide(wire.Request{Key: "k"})
	}
	s.checkpointOnce()
	r, found, err := db.Get("k")
	if err != nil || !found {
		t.Fatalf("found=%v err=%v", found, err)
	}
	if r.Credit != 6 {
		t.Fatalf("checkpointed credit = %v, want 6", r.Credit)
	}
}

func TestReplacementServerResumesFromCheckpoint(t *testing.T) {
	// Paper §II-D: a replacement server uses the last check-pointed credit
	// as the initial credit value.
	db := newDB(t, bucket.Rule{Key: "k", RefillRate: 0, Capacity: 10, Credit: 10})
	s1 := newServer(t, Config{Store: db})
	for i := 0; i < 7; i++ {
		s1.Decide(wire.Request{Key: "k"})
	}
	s1.checkpointOnce()
	s1.Close()
	s2 := newServer(t, Config{Store: db})
	allowed := 0
	for i := 0; i < 10; i++ {
		if s2.Decide(wire.Request{Key: "k"}).Allow {
			allowed++
		}
	}
	if allowed != 3 {
		t.Fatalf("replacement admitted %d, want 3 (checkpointed credit)", allowed)
	}
}

func TestPreload(t *testing.T) {
	var rules []bucket.Rule
	for i := 0; i < 50; i++ {
		rules = append(rules, bucket.Rule{Key: fmt.Sprintf("k%d", i), RefillRate: 1, Capacity: 5, Credit: 5})
	}
	db := newDB(t, rules...)
	s := newServer(t, Config{Store: db})
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	if s.TableLen() != 50 {
		t.Fatalf("table len = %d", s.TableLen())
	}
	// Preloaded keys do not hit the database again.
	q0 := s.Stats().DBQueries
	s.Decide(wire.Request{Key: "k7"})
	if s.Stats().DBQueries != q0 {
		t.Fatal("preloaded key hit the database")
	}
}

func TestFailOpenAndFailClosed(t *testing.T) {
	// Use a store over a closed server so every query errors.
	engine := minisql.NewEngine()
	srv, err := minisql.NewServer(engine, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := minisql.NewPool(srv.Addr(), 1)
	db := store.New(pool)
	srv.Close()

	closed := newServer(t, Config{Store: db, FailOpen: false})
	if resp := closed.Decide(wire.Request{Key: "a"}); resp.Allow {
		t.Fatal("fail-closed server admitted during DB outage")
	}
	open := newServer(t, Config{Store: db, FailOpen: true})
	if resp := open.Decide(wire.Request{Key: "a"}); !resp.Allow {
		t.Fatal("fail-open server denied during DB outage")
	}
	if closed.Stats().DBErrors == 0 || open.Stats().DBErrors == 0 {
		t.Fatal("DB errors not counted")
	}
}

// TestSilentDatabaseFailsOpen: a database that accepts the connection and
// never answers fails a first-sight fetch within minisql's round-trip
// deadline (5 s), so the key gets the FailOpen verdict instead of holding its
// table shard forever.
func TestSilentDatabaseFailsOpen(t *testing.T) {
	t.Parallel()
	pool := minisql.NewPool(silentPeer(t), 1)
	defer pool.Close()
	s := newServer(t, Config{Store: store.New(pool), FailOpen: true})
	within(t, 6*time.Second, "first-sight Decide", func() {
		if resp := s.Decide(wire.Request{Key: "k", Cost: 1}); !resp.Allow {
			t.Errorf("fail-open server denied on a silent database: %+v", resp)
		}
	})
	if s.Stats().DBErrors != 1 {
		t.Fatalf("%d database errors, want 1", s.Stats().DBErrors)
	}
}

// flakyExecutor fails every statement while down is set.
type flakyExecutor struct {
	store.Executor
	down atomic.Bool
}

func (f *flakyExecutor) Execute(sql string, args ...minisql.Value) (minisql.Result, error) {
	if f.down.Load() {
		return minisql.Result{}, errors.New("database unreachable")
	}
	return f.Executor.Execute(sql, args...)
}

// TestErrorFallbackEndsWithOutage: a key whose first fetch fails keeps the
// FailOpen policy's fallback bucket only until a sync pass reads the database
// again; then it re-reads its rule, which no edit has put in the change feed.
// A checkpoint before that pass must not write the fallback's credit back.
func TestErrorFallbackEndsWithOutage(t *testing.T) {
	for _, failOpen := range []bool{false, true} {
		flaky := &flakyExecutor{Executor: minisql.NewEngine()}
		db := store.New(flaky)
		if err := db.Init(); err != nil {
			t.Fatal(err)
		}
		if err := db.Put(bucket.Rule{Key: "k", RefillRate: 0, Capacity: 2, Credit: 2}); err != nil {
			t.Fatal(err)
		}
		s := newServer(t, Config{Store: db, FailOpen: failOpen})
		s.SyncOnce() // the cursor passes the rule before the outage
		flaky.down.Store(true)
		s.Decide(wire.Request{Key: "k"})
		flaky.down.Store(false)
		s.checkpointOnce()
		if r, _, err := db.Get("k"); err != nil || r.Credit != 2 {
			t.Fatalf("failOpen=%v: checkpoint wrote the fallback back: credit %v, err %v", failOpen, r.Credit, err)
		}
		for i := 0; i < 3; i++ {
			s.SyncOnce()
		}
		allowed := 0
		for i := 0; i < 10; i++ {
			if s.Decide(wire.Request{Key: "k"}).Allow {
				allowed++
			}
		}
		if allowed != 2 {
			t.Errorf("failOpen=%v: admitted %d of 10 after the outage, want the rule's 2", failOpen, allowed)
		}
	}
}

// TestFallbackKeepsPeerRule: a key that got the error fallback during a
// database outage and then a real rule from a peer's handoff keeps the
// peer's rule, credit included, through the sync pass after recovery; only
// fallbacks still on the default rule re-fetch.
func TestFallbackKeepsPeerRule(t *testing.T) {
	rule := bucket.Rule{Key: "k", RefillRate: 0, Capacity: 5, Credit: 5}
	for _, failOpen := range []bool{false, true} {
		flaky := &flakyExecutor{Executor: minisql.NewEngine()}
		db := store.New(flaky)
		if err := db.Init(); err != nil {
			t.Fatal(err)
		}
		if err := db.Put(rule); err != nil {
			t.Fatal(err)
		}
		dst := newServer(t, Config{Store: db, FailOpen: failOpen, ReplicationAddr: "127.0.0.1:0"})
		dst.SyncOnce()
		flaky.down.Store(true)
		dst.Decide(wire.Request{Key: "k"})
		if !defaultKey(dst, "k") {
			t.Fatalf("failOpen=%v: precondition: k is not on the error fallback", failOpen)
		}

		// The peer holds k's rule with 2 of its 5 credits left, and hands it over.
		src := newHandoffServer(t, rule)
		for i := 0; i < 3; i++ {
			if !src.Decide(wire.Request{Key: "k"}).Allow {
				t.Fatalf("failOpen=%v: peer denied k", failOpen)
			}
		}
		if moved, err := src.Rebalance(func(string) string { return dst.ReplicationAddr() }); err != nil || moved != 1 {
			t.Fatalf("failOpen=%v: handoff moved %d, err %v", failOpen, moved, err)
		}
		if defaultKey(dst, "k") {
			t.Fatalf("failOpen=%v: precondition: the handoff left k on the default rule", failOpen)
		}

		flaky.down.Store(false)
		dst.SyncOnce()
		allowed := 0
		for i := 0; i < 10; i++ {
			if dst.Decide(wire.Request{Key: "k"}).Allow {
				allowed++
			}
		}
		if allowed != 2 {
			t.Errorf("failOpen=%v: admitted %d of 10 after recovery, want the peer's 2", failOpen, allowed)
		}
	}
}

// TestRemovedKeysLeaveNoState: a key that leaves the table takes its whole
// entry with it — bucket, default-rule mark and audit account. Here 1 000
// first-sight keys get the error fallback during a database outage; the sync
// pass after recovery evicts them, and neither the table nor the audit ledger
// keeps anything of them.
func TestRemovedKeysLeaveNoState(t *testing.T) {
	flaky := &flakyExecutor{Executor: minisql.NewEngine()}
	db := store.New(flaky)
	if err := db.Init(); err != nil {
		t.Fatal(err)
	}
	s := newServer(t, Config{Store: db, Audit: true, AuditInterval: time.Hour})
	s.SyncOnce()
	flaky.down.Store(true)
	for i := 0; i < 1000; i++ {
		s.Decide(wire.Request{Key: fmt.Sprintf("outage-%d", i)})
	}
	if n := gauge(t, s, "janus_qos_audit_buckets"); n != 1000 {
		t.Fatalf("precondition: janus_qos_audit_buckets = %v during the outage, want 1000", n)
	}
	flaky.down.Store(false)
	s.SyncOnce()
	if n := s.TableLen(); n != 0 {
		t.Errorf("TableLen = %d after recovery, want 0", n)
	}
	if n := gauge(t, s, "janus_qos_audit_buckets"); n != 0 {
		t.Errorf("janus_qos_audit_buckets = %v after recovery, want 0", n)
	}
}

// TestReinstallInPlaceRaceFree: four goroutines decide one key while sync
// passes flip its geometry and its default-rule mark by inserting, editing
// and deleting its row, so its entry is reinstalled in place, evicted and
// re-created under the deciders. Under -race this reports nothing, and the
// audit holds throughout. Refill rates are 0, so every admitted unit is
// granted credit and the budget has no refill slack to hide an overspend in.
func TestReinstallInPlaceRaceFree(t *testing.T) {
	db := newDB(t)
	s := newServer(t, Config{Store: db, Audit: true, AuditInterval: time.Hour,
		DefaultRule: bucket.Rule{Capacity: 2, Credit: 2}})
	s.SyncOnce()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Decide(wire.Request{Key: "flip", Cost: 1})
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		var err error
		switch i % 3 {
		case 0: // the default key gains a row: reinstalled in place, mark cleared
			err = db.Put(bucket.Rule{Key: "flip", Capacity: 5, Credit: 5})
		case 1: // a geometry edit: reinstalled in place
			err = db.Put(bucket.Rule{Key: "flip", Capacity: 9, Credit: 9})
		default: // the row leaves: evicted, re-created on the default rule
			_, err = db.Delete("flip")
		}
		if err != nil {
			t.Fatal(err)
		}
		s.SyncOnce()
		if rep := s.AuditReport(); rep.Verdict != "ok" {
			t.Fatalf("step %d: audit %s: %+v", i, rep.Verdict, rep.Overspent)
		}
	}
	close(stop)
	wg.Wait()
	if rep := s.AuditReport(); rep.Verdict != "ok" {
		t.Fatalf("audit %s: %+v", rep.Verdict, rep.Overspent)
	}
}

// TestFetchErrorLogThrottled: a spray of first-sight keys against a down
// database logs at most one line per second, and the error counter still
// counts every failed fetch.
func TestFetchErrorLogThrottled(t *testing.T) {
	flaky := &flakyExecutor{Executor: minisql.NewEngine()}
	flaky.down.Store(true)
	var logged bytes.Buffer
	s := newServer(t, Config{Store: store.New(flaky), Logger: log.New(&logged, "", 0)})
	const keys = 10000
	for i := 0; i < keys; i++ {
		s.Decide(wire.Request{Key: fmt.Sprintf("spray-%d", i)})
	}
	if lines := strings.Count(logged.String(), "\n"); lines > 2 {
		t.Errorf("%d log lines for %d failed fetches, want <= 2", lines, keys)
	}
	if n := s.Registry().Counter("janus_qos_db_errors_total", "").Value(); n != keys {
		t.Errorf("janus_qos_db_errors_total = %d, want %d", n, keys)
	}
}

// TestStatsAddCoversEveryField sets every field of a Stats to 1 by
// reflection and adds it twice: a counter added to the struct but not to
// Add reads 0 and fails here. A non-numeric field fails too, so whoever adds
// one decides how it sums.
func TestStatsAddCoversEveryField(t *testing.T) {
	fill := func(n int64) (s Stats) {
		v := reflect.ValueOf(&s).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); {
			case f.CanInt():
				f.SetInt(n)
			case f.CanFloat():
				f.SetFloat(float64(n))
			default:
				t.Fatalf("Stats.%s is %s: teach Add and this test to sum it", v.Type().Field(i).Name, f.Kind())
			}
		}
		return s
	}
	var sum Stats
	sum.Add(fill(1))
	sum.Add(fill(1))
	if want := fill(2); sum != want {
		t.Fatalf("after two Adds of all-ones:\n got %+v\nwant %+v", sum, want)
	}
}

func TestStatsAndLatencyHistogram(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "k", RefillRate: 0, Capacity: 100, Credit: 100})
	s := newServer(t, Config{Store: db})
	for i := 0; i < 10; i++ {
		s.Decide(wire.Request{Key: "k"})
	}
	if s.sojournDecide.Count() != 0 {
		// Decide() called directly does not go through the worker path;
		// the decide stage is timed only by workers.
		t.Fatal("direct Decide recorded a decide-stage sojourn")
	}
	c, err := transport.Dial(s.Addr(), clientCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if _, err := c.Do(wire.Request{Key: "k"}); err != nil {
			t.Fatal(err)
		}
	}
	// A worker files the sojourn after it sends the reply.
	deadline := time.Now().Add(2 * time.Second)
	for s.sojournDecide.Count() < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("decide stage counted %d of 10 requests via UDP path", s.sojournDecide.Count())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseIdempotent(t *testing.T) {
	s := newServer(t, Config{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMalformedDatagramCounted(t *testing.T) {
	s := newServer(t, Config{})
	c, err := transport.Dial(s.Addr(), transport.Config{Timeout: 5 * time.Millisecond, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Valid traffic still works around garbage.
	conn := mustRawUDP(t, s.Addr())
	conn.Write([]byte("not a janus packet"))
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Malformed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("malformed datagram not counted")
		}
		time.Sleep(time.Millisecond)
	}
}

func mustRawUDP(t *testing.T, addr string) *connWrapper {
	t.Helper()
	c, err := netDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}
