package cluster

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/loadgen"
	"repro/internal/membership"
	"repro/internal/minisql"
	"repro/internal/promtext"
	"repro/internal/store"
	"repro/internal/wire"
)

func rules(n int, rate, capacity float64) []bucket.Rule {
	out := make([]bucket.Rule, n)
	for i := range out {
		out[i] = bucket.Rule{Key: fmt.Sprintf("user-%d", i), RefillRate: rate, Capacity: capacity, Credit: capacity}
	}
	return out
}

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestGatewayEndToEnd(t *testing.T) {
	c := newCluster(t, Config{
		Routers:    2,
		QoSServers: 2,
		Rules:      rules(4, 0, 3),
	})
	// Each user has 3 credits, no refill.
	for u := 0; u < 4; u++ {
		key := fmt.Sprintf("user-%d", u)
		for i := 0; i < 3; i++ {
			ok, err := c.Check(key)
			if err != nil || !ok {
				t.Fatalf("%s request %d: ok=%v err=%v", key, i, ok, err)
			}
		}
		ok, err := c.Check(key)
		if err != nil || ok {
			t.Fatalf("%s over-quota admitted: ok=%v err=%v", key, ok, err)
		}
	}
	if c.TotalDecisions() != 16 {
		t.Fatalf("decisions = %d", c.TotalDecisions())
	}
}

func TestDNSModeEndToEnd(t *testing.T) {
	c := newCluster(t, Config{
		Routers:    2,
		QoSServers: 1,
		Mode:       DNS,
		Rules:      rules(1, 0, 2),
	})
	if c.Endpoint() != "" {
		t.Fatal("DNS mode has no LB endpoint")
	}
	checker := c.Checker()
	ok, err := checker.Check("user-0")
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	ok, _ = checker.Check("user-0")
	if !ok {
		t.Fatal("second request denied")
	}
	ok, _ = checker.Check("user-0")
	if ok {
		t.Fatal("third request admitted beyond capacity")
	}
}

func TestUnknownKeyUsesDefaultRule(t *testing.T) {
	c := newCluster(t, Config{
		DefaultRule: bucket.Rule{RefillRate: 0, Capacity: 1, Credit: 1},
	})
	ok, err := c.Check("guest-ip-1.2.3.4")
	if err != nil || !ok {
		t.Fatalf("guest first: ok=%v err=%v", ok, err)
	}
	ok, _ = c.Check("guest-ip-1.2.3.4")
	if ok {
		t.Fatal("guest second admitted beyond default capacity")
	}
}

func TestRefillAcrossCluster(t *testing.T) {
	// Rate 20/s: the bucket earns its first post-drain credit only after
	// 50ms, leaving the six checks a comfortable margin even under the
	// race detector.
	c := newCluster(t, Config{Rules: rules(1, 20, 5)})
	for i := 0; i < 5; i++ {
		if ok, _ := c.Check("user-0"); !ok {
			t.Fatalf("drain %d denied", i)
		}
	}
	if ok, _ := c.Check("user-0"); ok {
		t.Fatal("admitted with empty bucket")
	}
	time.Sleep(250 * time.Millisecond) // ~5 credits at 20/s
	ok, err := c.Check("user-0")
	if err != nil || !ok {
		t.Fatalf("after refill: ok=%v err=%v", ok, err)
	}
}

func TestRuleSyncPropagates(t *testing.T) {
	c := newCluster(t, Config{
		SyncInterval: 20 * time.Millisecond,
		Rules:        rules(1, 0, 1),
	})
	if ok, _ := c.Check("user-0"); !ok {
		t.Fatal("first denied")
	}
	if ok, _ := c.Check("user-0"); ok {
		t.Fatal("over quota")
	}
	// Upgrade the rule in the database; sync must propagate it.
	if err := c.Store.Put(bucket.Rule{Key: "user-0", RefillRate: 0, Capacity: 100, Credit: 100}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ok, _ := c.Check("user-0"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rule update never propagated")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCheckpointPersistsCredits(t *testing.T) {
	c := newCluster(t, Config{
		CheckpointInterval: 20 * time.Millisecond,
		Rules:              rules(1, 0, 10),
	})
	for i := 0; i < 4; i++ {
		c.Check("user-0")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, found, err := c.Store.Get("user-0")
		if err == nil && found && r.Credit == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint never landed: %+v", r)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHAFailover(t *testing.T) {
	c := newCluster(t, Config{
		QoSServers: 1,
		HA:         true,
		HAInterval: 10 * time.Millisecond,
		Rules:      rules(1, 0, 10),
	})
	// Consume 6 credits on the master, then wait for one replication pull
	// that strictly follows the consumption.
	for i := 0; i < 6; i++ {
		if ok, _ := c.Check("user-0"); !ok {
			t.Fatalf("drain %d denied", i)
		}
	}
	p0 := c.QoS[0].Rep.Pulls()
	deadline := time.Now().Add(5 * time.Second)
	for c.QoS[0].Rep.Pulls() <= p0 {
		if time.Now().After(deadline) {
			t.Fatal("no replication pulls after consumption")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.FailMaster(0); err != nil {
		t.Fatal(err)
	}
	// The router re-resolves after a timeout; allow a few default replies
	// before the slave answers with the warm table (4 remaining credits).
	allowed := 0
	for i := 0; i < 40 && allowed < 5; i++ {
		ok, err := c.Check("user-0")
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			allowed++
		}
		time.Sleep(5 * time.Millisecond)
	}
	if allowed != 4 {
		t.Fatalf("slave admitted %d, want 4 (warm credits)", allowed)
	}
}

func TestFailMasterErrors(t *testing.T) {
	c := newCluster(t, Config{})
	if err := c.FailMaster(0); err == nil {
		t.Fatal("FailMaster without HA succeeded")
	}
	if err := c.FailMaster(99); err == nil {
		t.Fatal("FailMaster out of range succeeded")
	}
}

func TestAddRouterScalesOut(t *testing.T) {
	c := newCluster(t, Config{Routers: 1, Rules: rules(1, 1e9, 1e9)})
	r, err := c.AddRouter()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.LB.Backends()) != 2 {
		t.Fatalf("LB backends = %d", len(c.LB.Backends()))
	}
	// Round robin now alternates; both routers serve traffic.
	for i := 0; i < 6; i++ {
		if ok, err := c.Check("user-0"); err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
	}
	if r.Stats().Requests == 0 {
		t.Fatal("new router received no traffic")
	}
}

func TestConcurrentLoadThroughCluster(t *testing.T) {
	c := newCluster(t, Config{
		Routers:    2,
		QoSServers: 2,
		QoSWorkers: 2,
		Rules:      rules(8, 1e9, 1e9),
	})
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("user-%d", i)
	}
	res := loadgen.RunClosedLoop(context.Background(), loadgen.ClosedLoopConfig{
		Checker:     c.Checker(),
		Keys:        loadgen.NewCyclicGen(keys),
		Concurrency: 8,
		Requests:    2000,
	})
	if res.Errors > 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.Accepted != 2000 {
		t.Fatalf("accepted = %d", res.Accepted)
	}
	if res.Throughput() < 100 {
		t.Fatalf("throughput = %.0f req/s, suspiciously low", res.Throughput())
	}
}

func TestCloseIdempotent(t *testing.T) {
	c := newCluster(t, Config{})
	c.Close()
	c.Close()
}

func TestQoSIntakeAndAuditPassThrough(t *testing.T) {
	c := newCluster(t, Config{
		Routers:       1,
		QoSServers:    1,
		CodelTarget:   5 * time.Millisecond,
		CodelInterval: 50 * time.Millisecond,
		Audit:         true,
		AuditInterval: 10 * time.Millisecond,
		Rules:         rules(2, 0, 5),
	})
	for i := 0; i < 10; i++ {
		if _, err := c.Check("user-0"); err != nil {
			t.Fatal(err)
		}
	}
	// The audit ledger only exists when Config.Audit reached the server.
	rep := c.QoS[0].Master.AuditReport()
	if rep.Verdict != "ok" {
		t.Fatalf("audit verdict = %q", rep.Verdict)
	}
	if rep.Buckets == 0 {
		t.Fatal("audit saw no buckets; Audit flag not plumbed through")
	}
	agg := c.AggregateQoSStats()
	if agg.Decisions != 10 || agg.Dropped != 0 {
		t.Fatalf("aggregate stats = %+v", agg)
	}
	var prom strings.Builder
	c.QoS[0].Master.Registry().WriteProm(&prom)
	m, err := promtext.Parse(strings.NewReader(prom.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Value("janus_qos_sojourn_current_ns"); !ok || v < 0 {
		t.Fatalf("current sojourn = %v (exposed %v), want a non-negative gauge", v, ok)
	}
	if c.QoS[0].Master.SojournTotal().Count() == 0 {
		t.Fatal("sojourn histogram empty")
	}
}

// slowDB delays every statement by more than one router→QoS transport
// timeout, as a first-sight store.Get stalled inside a GC mark phase does.
type slowDB struct {
	inner store.Executor
	delay time.Duration
}

func (d slowDB) Execute(sql string, args ...minisql.Value) (minisql.Result, error) {
	time.Sleep(d.delay)
	return d.inner.Execute(sql, args...)
}

// TestFirstSightSurvivesSlowDB pins the sizing of the default transport
// budget: a rule fetch that takes 150ms must still return the rule's
// verdict, not a reply the router fabricated for a healthy server. The
// retries queued behind the fetch are decided too, hence the spare credit.
func TestFirstSightSurvivesSlowDB(t *testing.T) {
	c := newCluster(t, Config{Mode: DNS, Membership: true, Rules: rules(16, 0, 10)})
	// Every QoS server holds this *store.Store, and nothing has used it
	// since boot seeded the rules, so its executor can still be swapped.
	// The server that will read it is started after the swap, which is
	// what orders the write before its workers' reads.
	*c.Store = *store.New(slowDB{inner: c.dbPool, delay: 150 * time.Millisecond})
	pair, err := c.AddQoSServer()
	if err != nil {
		t.Fatal(err)
	}
	var key string
	for _, r := range rules(16, 0, 10) {
		if owner, _ := c.View().Owner(r.Key); owner == pair.Name {
			key = r.Key
			break
		}
	}
	if key == "" {
		t.Fatal("no seeded key is owned by the added server")
	}

	resp := c.Routers[0].Route(wire.Request{Key: key, Cost: 1})
	if !resp.Allow || resp.Status != wire.StatusOK {
		t.Fatalf("first-sight verdict = %+v, want the rule's allow", resp)
	}
	if st := c.Routers[0].Stats(); st.DefaultReplies != 0 || st.Timeouts != 0 {
		t.Fatalf("router gave up on a slow but healthy server: %+v", st)
	}
}

// moduleGoroutines returns the stack of every goroutine with a frame in this
// module's packages, keyed by its "goroutine N" header.
func moduleGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "repro/internal/") {
			header, _, _ := strings.Cut(g, " [")
			out[header] = g
		}
	}
	return out
}

// TestCloseStopsEveryGoroutine boots each front end with every optional
// daemon on, drives it through a scale-out, and checks that Close leaves no
// goroutine running this module's code: every loop the deployment started has
// a stop path Close reaches. The cluster runs no membership Beater or Poller
// of its own (its coordinator is in-process), so the test runs one of each
// against the coordinator's HTTP service and stops them before Close.
func TestCloseStopsEveryGoroutine(t *testing.T) {
	before := moduleGoroutines()
	for _, mode := range []Mode{Gateway, DNS} {
		c := newCluster(t, Config{
			Routers:            2,
			QoSServers:         2,
			Mode:               mode,
			HA:                 true,
			DBHA:               true,
			Membership:         true,
			Audit:              true,
			SyncInterval:       10 * time.Millisecond,
			CheckpointInterval: 10 * time.Millisecond,
			AuditInterval:      10 * time.Millisecond,
			Rules:              rules(8, 100, 10),
		})
		svc, err := membership.NewService(c.Coord, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		coord := &membership.Client{Endpoint: svc.Addr()}
		beater := membership.NewBeater(coord, c.QoS[0].Name, c.QoS[0].Master.ReplicationAddr(), 5*time.Millisecond)
		poller := membership.NewPoller(coord, 5*time.Millisecond, func(membership.View) {})
		if err := beater.Start(); err != nil {
			t.Fatal(err)
		}
		if err := poller.Start(); err != nil {
			t.Fatal(err)
		}
		checker := c.Checker()
		check := func() {
			for i := 0; i < 40; i++ {
				if _, err := checker.Check(fmt.Sprintf("user-%d", i%8)); err != nil {
					t.Fatalf("mode %d: %v", mode, err)
				}
			}
		}
		check()
		if _, err := c.AddQoSServer(); err != nil {
			t.Fatal(err)
		}
		check()
		if running := len(moduleGoroutines()); running <= len(before) {
			t.Fatalf("mode %d: %d module goroutines while running, %d before boot: the stack filter matches nothing", mode, running, len(before))
		}
		poller.Stop()
		beater.Stop()
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}

	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var left []string
		for header, stack := range moduleGoroutines() {
			if _, old := before[header]; !old {
				left = append(left, stack)
			}
		}
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still run module code 5s after Close:\n\n%s", len(left), strings.Join(left, "\n\n"))
		}
	}
}
