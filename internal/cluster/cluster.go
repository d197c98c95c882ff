// Package cluster boots a complete Janus deployment in-process on loopback:
// database layer (minisql, optionally master/standby), QoS server layer
// (optionally with HA slave pairs), request router layer, and either a
// gateway load balancer or DNS load balancing (paper Fig 1a/1b). It is the
// one way to run Janus inside a Go process, and it is the real networked
// system — every request crosses real TCP/UDP sockets, and each key has one
// owner in the QoS tier, as in production. The integration tests, the
// examples and the real-path experiments (Fig 5, Fig 13) run on it.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bucket"
	"repro/internal/client"
	"repro/internal/dns"
	"repro/internal/lb"
	"repro/internal/loadgen"
	"repro/internal/membership"
	"repro/internal/minisql"
	"repro/internal/qosserver"
	"repro/internal/router"
	"repro/internal/store"
	"repro/internal/transport"
)

// Mode selects the load-balancing front end.
type Mode int

// Front-end modes (paper Fig 1).
const (
	// Gateway deploys an HTTP reverse-proxy load balancer (Fig 1a).
	Gateway Mode = iota
	// DNS exposes the router addresses via a round-robin DNS record
	// (Fig 1b); clients resolve and connect directly.
	DNS
)

// Domain names used inside the cluster's private DNS zone.
const (
	Domain    = "janus.local"
	DBName    = "db." + Domain
	qosPrefix = "qos-"
)

// Config sizes and tunes a deployment.
type Config struct {
	// Routers and QoSServers set the layer widths (default 1 each).
	Routers    int
	QoSServers int
	// QoSWorkers sets worker goroutines per QoS server (0 = #CPUs).
	QoSWorkers int
	// Mode selects gateway or DNS load balancing.
	Mode Mode
	// LBHopDelay, when non-nil, runs once per proxied request and may
	// sleep — used by experiments to model the gateway appliance's extra
	// network hop at AWS distances.
	LBHopDelay func()
	// DefaultRule applies to unknown keys (zero value denies).
	DefaultRule bucket.Rule
	// SyncInterval / CheckpointInterval configure the QoS server
	// maintenance threads (0 disables the respective thread).
	SyncInterval       time.Duration
	CheckpointInterval time.Duration
	// Transport tunes the router→QoS UDP exchange.
	Transport transport.Config
	// DefaultReply is the router's verdict when a QoS server is
	// unreachable.
	DefaultReply bool
	// Membership enables the epoch-versioned membership layer: QoS servers
	// register with the in-process coordinator and open a handoff listener,
	// routers consume hot-swappable views, and AddQoSServer/RemoveQoSServer
	// rebalance bucket state live instead of stranding it.
	Membership bool
	// HA adds a slave to every QoS server and a DNS failover record.
	HA bool
	// DBHA deploys the database as a master/standby pair behind a DNS
	// failover record — the Multi-AZ RDS shape of §III-D.
	DBHA bool
	// HAInterval is the slave replication pull interval.
	HAInterval time.Duration
	// DNSTTL is the TTL of the cluster's DNS records.
	DNSTTL time.Duration
	// Rules seeds the database.
	Rules []bucket.Rule
	// CodelTarget / CodelInterval tune the CoDel intake controller on every
	// QoS server (0 selects the qosserver defaults).
	CodelTarget   time.Duration
	CodelInterval time.Duration
	// Audit enables the online admission-audit ledger on every QoS server;
	// AuditInterval is its background pass period.
	Audit         bool
	AuditInterval time.Duration
}

func (c *Config) defaults() {
	if c.Routers <= 0 {
		c.Routers = 1
	}
	if c.QoSServers <= 0 {
		c.QoSServers = 1
	}
	if c.Transport.Timeout == 0 {
		// The paper's intra-AZ 100µs discipline, with the budget (timeout ×
		// 5 attempts = 250ms) sized from the slowest thing a QoS worker
		// does while the router waits: a first-sight store.Get. Measured
		// with benchmark/run.sh -workload dns-miss at GOMAXPROCS 1, it
		// stalls 30–85ms in every run and > 100ms in 3 of 17, always inside
		// a GC mark phase; a shorter budget expires first and the router
		// fabricates a default reply for a healthy server.
		c.Transport = transport.Config{Timeout: 50 * time.Millisecond, Retries: transport.DefaultRetries}
	}
	if c.HAInterval <= 0 {
		c.HAInterval = 50 * time.Millisecond
	}
	if c.DNSTTL <= 0 {
		c.DNSTTL = 30 * time.Second
	}
}

// QoSPair is a master QoS server and its optional HA slave.
type QoSPair struct {
	Name   string
	Master *qosserver.Server
	Slave  *qosserver.Server
	Rep    *qosserver.Replicator

	// masterDown marks the master as failed; the DNS health check reads it
	// concurrently with FailMaster.
	masterDown atomic.Bool
}

// Cluster is a running deployment.
type Cluster struct {
	cfg Config

	DNS *dns.Server

	DBEngine *minisql.Engine
	DBServer *minisql.Server
	dbPool   *minisql.Pool
	Store    *store.Store

	// Database standby (DBHA only).
	DBStandbyEngine *minisql.Engine
	DBStandbyServer *minisql.Server
	dbReplica       *minisql.Replica
	dbExec          *dnsExecutor

	QoS     []*QoSPair
	Routers []*router.Router
	LB      *lb.LB

	// Coord is the membership coordinator (Membership mode only).
	Coord *membership.Coordinator

	checker loadgen.Checker // Check's client, built once by New

	mu     sync.Mutex
	view   membership.View // last published view (Membership mode)
	closed bool
}

// New boots a deployment per cfg. On error, everything already started is
// torn down.
func New(cfg Config) (c *Cluster, err error) {
	cfg.defaults()
	c = &Cluster{cfg: cfg, DNS: dns.NewServer()}
	defer func() {
		if err != nil {
			c.Close()
		}
	}()
	if cfg.Membership {
		c.Coord = membership.NewCoordinator(membership.CoordinatorConfig{})
		// Every published view hot-swaps every router. The callback runs
		// under the coordinator lock, so cluster code must never hold c.mu
		// while calling a coordinator mutator.
		c.Coord.Subscribe(func(v membership.View) {
			v = v.Clone()
			c.mu.Lock()
			c.view = v
			routers := append([]*router.Router(nil), c.Routers...)
			c.mu.Unlock()
			for _, r := range routers {
				r.UpdateView(v)
			}
		})
	}

	// Database layer.
	c.DBEngine = minisql.NewEngine()
	c.DBServer, err = minisql.NewServer(c.DBEngine, "127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	if cfg.DBHA {
		// Multi-AZ shape: standby replicates from the master; the DB DNS
		// name is a health-checked failover record; the store resolves the
		// name on every borrowed connection so a failover is picked up
		// transparently.
		c.DBStandbyEngine = minisql.NewEngine()
		c.DBStandbyServer, err = minisql.NewServer(c.DBStandbyEngine, "127.0.0.1:0", nil)
		if err != nil {
			return nil, err
		}
		c.DBStandbyServer.SetReadOnly(true)
		c.dbReplica = minisql.NewReplica(c.DBStandbyEngine)
		if err = c.dbReplica.Follow(c.DBServer.Addr()); err != nil {
			return nil, err
		}
		masterAddr := c.DBServer.Addr()
		c.DNS.SetFailover(DBName, cfg.DNSTTL, masterAddr, c.DBStandbyServer.Addr(),
			func(addr string) bool {
				cl, err := minisql.DialTimeout(addr, 500*time.Millisecond)
				if err != nil {
					return false
				}
				defer cl.Close()
				serving, err := cl.Ping()
				return err == nil && serving
			}, cfg.HAInterval)
		c.dbExec = newDNSExecutor(c.DNS)
		c.Store = store.New(c.dbExec)
	} else {
		c.DNS.SetA(DBName, cfg.DNSTTL, c.DBServer.Addr())
		c.dbPool = minisql.NewPool(c.DBServer.Addr(), 8)
		c.Store = store.New(c.dbPool)
	}
	if err = c.Store.Init(); err != nil {
		return nil, err
	}
	if err = c.Store.PutAll(cfg.Rules); err != nil {
		return nil, err
	}

	// QoS server layer.
	for i := 0; i < cfg.QoSServers; i++ {
		pair, err2 := c.startQoSPair(i)
		if err2 != nil {
			return nil, err2
		}
		c.QoS = append(c.QoS, pair)
		if c.Coord != nil {
			c.Coord.Join(pair.Name, pair.Master.ReplicationAddr())
		}
	}

	// Request router layer: backends addressed by DNS name so failovers
	// are picked up by re-resolution.
	for i := 0; i < cfg.Routers; i++ {
		r, err2 := c.startRouter()
		if err2 != nil {
			return nil, err2
		}
		c.Routers = append(c.Routers, r)
		c.DNS.AddA(Domain, cfg.DNSTTL, r.Addr())
	}

	// Front end.
	if cfg.Mode == Gateway {
		addrs := make([]string, len(c.Routers))
		for i, r := range c.Routers {
			addrs[i] = r.Addr()
		}
		c.LB, err = lb.New(lb.Config{Addr: "127.0.0.1:0", Backends: addrs, HopDelay: cfg.LBHopDelay})
		if err != nil {
			return nil, err
		}
	}
	c.checker = c.Checker()
	return c, nil
}

// dnsExecutor is a store executor that resolves the database DNS name per
// call and maintains one pool per resolved address, so a DNS failover
// redirects subsequent statements to the promoted standby without any
// client reconfiguration.
type dnsExecutor struct {
	dns   *dns.Server
	mu    sync.Mutex
	pools map[string]*minisql.Pool
}

func newDNSExecutor(d *dns.Server) *dnsExecutor {
	return &dnsExecutor{dns: d, pools: make(map[string]*minisql.Pool)}
}

// Execute implements store.Executor.
func (e *dnsExecutor) Execute(sql string, args ...minisql.Value) (minisql.Result, error) {
	addrs, _, err := e.dns.Query(DBName)
	if err != nil {
		return minisql.Result{}, err
	}
	if len(addrs) == 0 {
		return minisql.Result{}, fmt.Errorf("cluster: no database address for %s", DBName)
	}
	e.mu.Lock()
	pool, ok := e.pools[addrs[0]]
	if !ok {
		pool = minisql.NewPool(addrs[0], 8)
		e.pools[addrs[0]] = pool
	}
	e.mu.Unlock()
	return pool.Execute(sql, args...)
}

func (e *dnsExecutor) close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range e.pools {
		p.Close()
	}
	e.pools = make(map[string]*minisql.Pool)
}

func qosName(i int) string { return fmt.Sprintf("%s%d.%s", qosPrefix, i, Domain) }

func (c *Cluster) qosConfig() qosserver.Config {
	return qosserver.Config{
		Addr:               "127.0.0.1:0",
		Workers:            c.cfg.QoSWorkers,
		DefaultRule:        c.cfg.DefaultRule,
		SyncInterval:       c.cfg.SyncInterval,
		CheckpointInterval: c.cfg.CheckpointInterval,
		CodelTarget:        c.cfg.CodelTarget,
		CodelInterval:      c.cfg.CodelInterval,
		Audit:              c.cfg.Audit,
		AuditInterval:      c.cfg.AuditInterval,
		Store:              c.Store,
	}
}

func (c *Cluster) startQoSPair(i int) (*QoSPair, error) {
	mcfg := c.qosConfig()
	if c.cfg.HA || c.cfg.Membership {
		// Membership mode needs the replication listener even without a
		// slave: it is the bucket-handoff endpoint for rebalancing.
		mcfg.ReplicationAddr = "127.0.0.1:0"
	}
	master, err := qosserver.New(mcfg)
	if err != nil {
		return nil, err
	}
	pair := &QoSPair{Name: qosName(i), Master: master}
	if !c.cfg.HA {
		c.DNS.SetA(pair.Name, c.cfg.DNSTTL, master.Addr())
		return pair, nil
	}
	slave, err := qosserver.New(c.qosConfig())
	if err != nil {
		master.Close()
		return nil, err
	}
	rep := qosserver.NewReplicator(slave, master.ReplicationAddr(), c.cfg.HAInterval)
	if err := rep.Start(); err != nil {
		master.Close()
		slave.Close()
		return nil, err
	}
	pair.Slave = slave
	pair.Rep = rep
	masterAddr := master.Addr()
	c.DNS.SetFailover(pair.Name, c.cfg.DNSTTL, masterAddr, slave.Addr(),
		func(addr string) bool { return !pair.masterDown.Load() && addr == masterAddr },
		c.cfg.HAInterval)
	return pair, nil
}

// Endpoint returns the HTTP address clients should target: the gateway LB
// in Gateway mode, or an error sentinel in DNS mode (use Checker, which
// resolves).
func (c *Cluster) Endpoint() string {
	if c.LB != nil {
		return c.LB.Addr()
	}
	return ""
}

// Checker returns a loadgen.Checker appropriate for the cluster's mode: in
// Gateway mode it targets the LB; in DNS mode it resolves the cluster
// domain per the OS caching rules (first address, TTL cache) like a real
// client, and keeps one client per router address it was ever sent to. The
// checker is safe for concurrent use.
func (c *Cluster) Checker() loadgen.Checker {
	if c.LB != nil {
		return client.New(c.LB.Addr())
	}
	resolver := dns.NewResolver(c.DNS)
	var (
		mu     sync.Mutex
		byAddr = map[string]*client.Client{}
	)
	return loadgen.CheckerFunc(func(key string) (bool, error) {
		addr, err := resolver.ResolveOne(Domain)
		if err != nil {
			return false, err
		}
		mu.Lock()
		cl := byAddr[addr]
		if cl == nil {
			cl = client.New(addr)
			byAddr[addr] = cl
		}
		mu.Unlock()
		return cl.Check(key)
	})
}

// Check performs one admission check through the full stack, on the
// cluster's own checker: one client for the life of the cluster, so
// repeated checks reuse its connections and, in DNS mode, stay on one
// router within a TTL.
func (c *Cluster) Check(key string) (bool, error) {
	return c.checker.Check(key)
}

// FailMaster kills QoS master i (simulating a node failure), triggers the
// DNS failover health check, and promotes the slave. It returns an error
// when HA is not enabled.
func (c *Cluster) FailMaster(i int) error {
	if i < 0 || i >= len(c.QoS) {
		return fmt.Errorf("cluster: no QoS pair %d", i)
	}
	pair := c.QoS[i]
	if pair.Slave == nil {
		return fmt.Errorf("cluster: HA not enabled")
	}
	pair.masterDown.Store(true) // health check now fails
	pair.Master.Close()
	pair.Rep.Stop() // promotion: slave stops pulling, serves warm table
	if _, err := c.DNS.CheckNow(pair.Name); err != nil {
		return err
	}
	return nil
}

// startRouter boots one router node against the current QoS layer. In
// Membership mode the router immediately adopts the coordinator's current
// view, so routers added mid-life join at the current epoch.
func (c *Cluster) startRouter() (*router.Router, error) {
	c.mu.Lock()
	names := make([]string, len(c.QoS))
	for i, p := range c.QoS {
		names[i] = p.Name
	}
	c.mu.Unlock()
	// The resolver is uncached: a router re-resolves a backend only after a
	// timeout invalidated it, and must then see the post-failover answer.
	r, err := router.New(router.Config{
		Addr:         "127.0.0.1:0",
		Backends:     names,
		Resolver:     dns.NewUncachedResolver(c.DNS),
		Transport:    c.cfg.Transport,
		DefaultReply: c.cfg.DefaultReply,
	})
	if err != nil {
		return nil, err
	}
	if c.Coord != nil {
		if err := r.UpdateView(c.Coord.View()); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// AddRouter scales the router layer out by one node and registers it with
// the front end (the Auto Scaling flow of §V-A).
func (c *Cluster) AddRouter() (*router.Router, error) {
	r, err := c.startRouter()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.Routers = append(c.Routers, r)
	c.mu.Unlock()
	c.DNS.AddA(Domain, c.cfg.DNSTTL, r.Addr())
	if c.LB != nil {
		c.LB.AddBackend(r.Addr())
	}
	return r, nil
}

// RemoveRouter scales the router layer in by one node (the last added),
// deregistering it from the front end before shutdown so in-flight traffic
// drains to the survivors. It refuses to remove the last router.
func (c *Cluster) RemoveRouter() error {
	c.mu.Lock()
	if len(c.Routers) <= 1 {
		c.mu.Unlock()
		return fmt.Errorf("cluster: cannot remove the last router")
	}
	r := c.Routers[len(c.Routers)-1]
	c.Routers = c.Routers[:len(c.Routers)-1]
	c.mu.Unlock()
	c.DNS.RemoveA(Domain, r.Addr())
	if c.LB != nil {
		c.LB.RemoveBackend(r.Addr())
	}
	return r.Close()
}

// AddQoSServer scales the QoS tier out by one node (Membership mode only):
// it boots the server, publishes the next membership epoch — hot-swapping
// every router onto the wider view — and then rebalances, pushing every
// bucket whose key changed owner to its new home so credits survive the
// scale event. Jump hash moves only ~K/(N+1) keys, all of them onto the
// new server.
func (c *Cluster) AddQoSServer() (*QoSPair, error) {
	if c.Coord == nil {
		return nil, fmt.Errorf("cluster: membership not enabled")
	}
	c.mu.Lock()
	i := len(c.QoS)
	c.mu.Unlock()
	pair, err := c.startQoSPair(i)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.QoS = append(c.QoS, pair)
	c.mu.Unlock()
	// Publishing the wider view swaps the routers before Join returns;
	// only then is it safe to strip moved keys from the old owners.
	v := c.Coord.Join(pair.Name, pair.Master.ReplicationAddr())
	if err := c.rebalance(v); err != nil {
		return pair, err
	}
	return pair, nil
}

// RemoveQoSServer scales the QoS tier in by one node — the last added
// (Membership mode only). The narrower view is published first, draining
// new traffic off the departing server, whose entire table is then handed
// off to the surviving owners before shutdown. It refuses to remove the
// last QoS server.
func (c *Cluster) RemoveQoSServer() error {
	if c.Coord == nil {
		return fmt.Errorf("cluster: membership not enabled")
	}
	c.mu.Lock()
	if len(c.QoS) <= 1 {
		c.mu.Unlock()
		return fmt.Errorf("cluster: cannot remove the last QoS server")
	}
	pair := c.QoS[len(c.QoS)-1]
	c.QoS = c.QoS[:len(c.QoS)-1]
	c.mu.Unlock()
	v := c.Coord.Leave(pair.Name)
	// The departing server no longer appears in the view, so rebalance
	// exports every one of its entries to the new owners.
	err := c.rebalancePair(pair, v)
	c.DNS.Delete(pair.Name)
	if pair.Rep != nil {
		pair.Rep.Stop()
	}
	pair.Master.Close()
	if pair.Slave != nil {
		pair.Slave.Close()
	}
	return err
}

// rebalance runs the bucket handoff on every QoS master against view v.
func (c *Cluster) rebalance(v membership.View) error {
	c.mu.Lock()
	pairs := append([]*QoSPair(nil), c.QoS...)
	c.mu.Unlock()
	var firstErr error
	for _, p := range pairs {
		if err := c.rebalancePair(p, v); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// rebalancePair hands off every bucket of pair whose key now belongs to a
// different view member.
func (c *Cluster) rebalancePair(pair *QoSPair, v membership.View) error {
	addrOf := make(map[string]string)
	for _, m := range c.Coord.Members() {
		if m.Alive {
			addrOf[m.Name] = m.Addr
		}
	}
	_, err := pair.Master.Rebalance(func(key string) string {
		ownerName, oerr := v.Owner(key)
		if oerr != nil || ownerName == pair.Name {
			return ""
		}
		return addrOf[ownerName]
	})
	return err
}

// View returns the current membership view (zero View when Membership is
// disabled).
func (c *Cluster) View() membership.View {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view.Clone()
}

// RouterCount returns the current router-layer width.
func (c *Cluster) RouterCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.Routers)
}

// AggregateQoSStats sums the operation counters across every QoS node
// (masters and slaves) — the cluster-wide view scenario SLO checks read.
func (c *Cluster) AggregateQoSStats() qosserver.Stats {
	c.mu.Lock()
	pairs := append([]*QoSPair(nil), c.QoS...)
	c.mu.Unlock()
	var agg qosserver.Stats
	for _, p := range pairs {
		if p.Master != nil {
			agg.Add(p.Master.Stats())
		}
		if p.Slave != nil {
			agg.Add(p.Slave.Stats())
		}
	}
	return agg
}

// Close tears the whole deployment down.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	if c.LB != nil {
		c.LB.Close()
	}
	for _, r := range c.Routers {
		r.Close()
	}
	for _, p := range c.QoS {
		if p.Rep != nil {
			p.Rep.Stop()
		}
		if p.Master != nil {
			p.Master.Close()
		}
		if p.Slave != nil {
			p.Slave.Close()
		}
	}
	if c.dbPool != nil {
		c.dbPool.Close()
	}
	if c.dbExec != nil {
		c.dbExec.close()
	}
	if c.dbReplica != nil {
		c.dbReplica.Stop()
	}
	if c.DBStandbyServer != nil {
		c.DBStandbyServer.Close()
	}
	if c.DBServer != nil {
		c.DBServer.Close()
	}
	if c.Coord != nil {
		c.Coord.Close()
	}
	if c.DNS != nil {
		c.DNS.Close()
	}
}
