// Package cloudsim models the paper's AWS deployment (§V) as a
// discrete-event simulation, substituting for the EC2 testbed: client fleet
// → load balancer → request router layer → QoS server layer, with per-node
// capacities from the calibrated cost model in internal/sim.
//
// Run is the tree's one simulated pipeline. The scaling experiments (Figs
// 7–12, the headline, DNS-TTL skew) drive it with closed-loop clients, as
// the paper's modified "ab" does; the latency curve offers it a constant
// open-loop rate; failure locality adds a QoS-node outage; the scenario
// suite's DES tier (internal/scenario) drives it open-loop with a key
// stream, per-key admission through janusd's internal/admission table and
// an autoscaled router layer.
//
// Routers and QoS servers are multi-server FIFO stations whose service
// slots equal the node's vCPUs and whose service-time distribution is
// exponential with the calibrated mean, so a node's maximum sustainable
// throughput equals its modelled capacity.
package cloudsim

import (
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/bucket"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// RoutingMode selects how clients reach the router layer (§II-A).
type RoutingMode int

// Routing modes.
const (
	// GatewayRR is the ELB path: an extra proxy hop, round-robin across
	// all router nodes per request.
	GatewayRR RoutingMode = iota
	// DNSPinned is the DNS load-balancer path: no extra hop, but each
	// client sticks to one router node until its DNS TTL expires (§V-A).
	DNSPinned
)

// One-way network legs (intra-AZ EC2 latencies circa 2018) and the
// client-side DNS cache lifetime of the modelled deployment.
const (
	ClientToLB  = 280 * time.Microsecond // client fleet -> LB (or router in DNS mode)
	LBToRouter  = 250 * time.Microsecond // extra gateway hop
	RouterToQoS = 100 * time.Microsecond // router -> QoS server (UDP leg)
	DNSTTL      = 30 * time.Second
)

// retryBudget is how long a router waits on a down QoS node before it gives
// the default reply: every attempt of the UDP discipline times out (§III-B).
const retryBudget = transport.DefaultRetries * transport.DefaultTimeout

// lorisFactor is a slow-loris job's router demand in mean service times.
const lorisFactor = 60

// Deployment describes one simulated Janus installation.
type Deployment struct {
	// Routers and QoS define the two scaled layers.
	Routers []sim.Node
	QoS     []sim.Node
	// Mode selects the load-balancing path.
	Mode RoutingMode
	// RouterQueue bounds each router's waiting room (0 = unbounded). A
	// request that finds it full gets the router's degraded answer at once:
	// no decision, no credit moved (Result.Degraded).
	RouterQueue int
	// Outage takes one QoS node down for an interval; the zero Outage is
	// none.
	Outage Outage
	// Autoscale, when set, is called before the first event with the run's
	// control surface, through which it may sample latency and add or
	// drain router nodes on a virtual-time period.
	Autoscale func(*Control)
}

// Outage takes QoS node Node down at From (> 0) and brings a replacement up
// at To — warm from checkpoints, at the same partition index — or never
// when To <= From. A request the router sends to the node meanwhile gets
// the router's default reply once its retries are spent.
type Outage struct {
	Node     int
	From, To time.Duration
}

// RouterNodes builds a homogeneous router layer.
func RouterNodes(t sim.InstanceType, n int) []sim.Node { return nodes(sim.LayerRouter, t, n) }

// QoSNodes builds a homogeneous QoS server layer.
func QoSNodes(t sim.InstanceType, n int) []sim.Node { return nodes(sim.LayerQoS, t, n) }

func nodes(l sim.Layer, t sim.InstanceType, n int) []sim.Node {
	out := make([]sim.Node, n)
	for i := range out {
		out[i] = sim.Node{Type: t, Layer: l}
	}
	return out
}

// RunConfig describes the load of one simulation run.
type RunConfig struct {
	// Clients is the closed-loop client-thread count (the paper's ten
	// c3.8xlarge load nodes run hundreds of concurrent ab threads).
	Clients int
	// ClientNodes is the number of physical client machines; in DNSPinned
	// mode all threads of one machine share its DNS cache (§V-A). 0 means
	// one machine per client thread.
	ClientNodes int
	// Rate, when set, replaces the closed-loop fleet with an open-loop
	// Poisson arrival process whose rate in req/s at each instant is
	// Rate(elapsed); arrivals pause while it is not positive.
	Rate func(elapsed time.Duration) float64
	// Keys draws each request's QoS key for Rules.
	Keys interface{ Next() string }
	// Rules, when set, has the QoS node decide every request through one
	// admission.Table on the virtual clock (no audit, the zero default
	// rule). Result.Keys tallies the decisions. It requires Keys.
	Rules admission.Rules
	// Loris is the fraction of requests that are slow-loris jobs: each holds
	// a router worker for lorisFactor mean service times and is left out of
	// Result.Latency.
	Loris float64
	// Duration is the measured virtual interval, after Warmup.
	Duration time.Duration
	// Warmup is virtual time at the start that counts only toward
	// NodeReport.WarmupThroughput.
	Warmup time.Duration
	// Seed drives all randomness.
	Seed int64
}

func (c *RunConfig) defaults() {
	if c.Clients <= 0 {
		c.Clients = 1024
	}
	if c.ClientNodes <= 0 {
		c.ClientNodes = c.Clients
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
}

// NodeReport summarizes one node after a run.
type NodeReport struct {
	Node             sim.Node
	Throughput       float64 // req/s served in the measured interval
	WarmupThroughput float64 // req/s served during the warmup
	CPU              float64 // modelled CPU utilization (0..1)
	// DefaultReplies counts requests for this QoS node that the router
	// answered with its default reply in the measured interval.
	DefaultReplies int64
}

// KeyTally is one key's admission record over a whole run.
type KeyTally struct{ Requested, Admitted, Rejected int64 }

// Result summarizes a run.
type Result struct {
	// Throughput is decided requests per second over the measured
	// interval (the paper's "requests per second" y-axis).
	Throughput float64
	// Routers and QoS report per-node load and CPU; Routers includes every
	// node the Autoscale hook added.
	Routers []NodeReport
	QoS     []NodeReport
	// Latency is the end-to-end latency histogram (ns) of decided requests
	// in the measured interval, slow-loris jobs excepted.
	Latency *metrics.Histogram
	// Degraded counts requests answered by a full router waiting room in
	// the measured interval.
	Degraded int64
	// Keys is each key's tally when RunConfig.Rules is set.
	Keys map[string]*KeyTally
	// Events is the number of simulation events processed.
	Events int
}

// routerCPUMean returns the average router-layer CPU utilization.
func (r Result) routerCPUMean() float64 { return meanCPU(r.Routers) }

// qosCPUMean returns the average QoS-layer CPU utilization.
func (r Result) qosCPUMean() float64 { return meanCPU(r.QoS) }

func meanCPU(nodes []NodeReport) float64 {
	if len(nodes) == 0 {
		return 0
	}
	var sum float64
	for _, n := range nodes {
		sum += n.CPU
	}
	return sum / float64(len(nodes))
}

// activeRouters counts router nodes that served any traffic (used by the
// DNS-TTL skew ablation).
func (r Result) activeRouters() int {
	n := 0
	for _, nr := range r.Routers {
		if nr.Throughput > 0 {
			n++
		}
	}
	return n
}

// Control is a run's control surface for its Autoscale hook. Every method
// acts at the current virtual instant.
type Control struct{ r *run }

// Now returns the virtual time since the run started.
func (c *Control) Now() time.Duration { return time.Duration(c.r.eng.Now()) }

// Every runs fn every d of virtual time, first at d.
func (c *Control) Every(d time.Duration, fn func()) {
	var tick func()
	tick = func() {
		fn()
		c.r.eng.After(des.FromDuration(d), tick)
	}
	c.r.eng.After(des.FromDuration(d), tick)
}

// Routers returns the number of routers receiving new requests.
func (c *Control) Routers() int { return len(c.r.live) }

// AddRouter brings up one more router like the deployment's first and
// returns the new count.
func (c *Control) AddRouter() int {
	c.r.addRouter(c.r.dep.Routers[0])
	return len(c.r.live)
}

// DrainRouter stops sending new requests to the newest router, which still
// completes what it holds, and returns the new count. It keeps one router.
func (c *Control) DrainRouter() int {
	if len(c.r.live) > 1 {
		c.r.live = c.r.live[:len(c.r.live)-1]
	}
	return len(c.r.live)
}

// Latency returns the histogram Result.Latency reports, as recorded so far.
func (c *Control) Latency() *metrics.Histogram { return c.r.res.Latency }

// Run simulates the deployment under the configured load.
func Run(dep Deployment, cfg RunConfig) (Result, error) {
	if len(dep.Routers) == 0 || len(dep.QoS) == 0 {
		return Result{}, fmt.Errorf("cloudsim: deployment needs at least one router and one QoS node")
	}
	for _, n := range dep.Routers {
		if n.Layer != sim.LayerRouter {
			return Result{}, fmt.Errorf("cloudsim: router node with layer %q", n.Layer)
		}
	}
	for _, n := range dep.QoS {
		if n.Layer != sim.LayerQoS {
			return Result{}, fmt.Errorf("cloudsim: qos node with layer %q", n.Layer)
		}
	}
	if o := dep.Outage; o.From > 0 && (o.Node < 0 || o.Node >= len(dep.QoS)) {
		return Result{}, fmt.Errorf("cloudsim: outage of QoS node %d of %d", o.Node, len(dep.QoS))
	}
	if cfg.Rules != nil && cfg.Keys == nil {
		return Result{}, fmt.Errorf("cloudsim: per-key rules need a key stream")
	}
	if !(cfg.Loris >= 0 && cfg.Loris < 1) {
		return Result{}, fmt.Errorf("cloudsim: slow-loris fraction %v outside [0, 1)", cfg.Loris)
	}
	cfg.defaults()

	eng := des.NewEngine(cfg.Seed)
	r := &run{dep: dep, cfg: cfg, eng: eng, res: Result{Latency: metrics.NewHistogram()}}
	if cfg.Rules != nil {
		r.adm = admission.New(cfg.Rules, bucket.Rule{}, false, nil, r.clock, metrics.NewRegistry(), nil)
		r.res.Keys = make(map[string]*KeyTally)
	}
	r.warmup = des.FromDuration(cfg.Warmup)
	r.end = r.warmup + des.FromDuration(cfg.Duration)
	for _, n := range dep.Routers {
		r.addRouter(n)
	}
	for _, n := range dep.QoS {
		r.qos = append(r.qos, r.newNode(n, 0, r.decided))
	}
	r.arrive, r.toQoS, r.reply = eng.Handle(r.arriveAtRouter), eng.Handle(r.arriveAtQoS), eng.Handle(r.replied)
	r.issueH, r.pump = eng.Handle(r.issue), eng.Handle(r.pumpArrival)

	eng.At(r.warmup, func() {
		for _, layer := range [][]*node{r.routers, r.qos} {
			for _, n := range layer {
				n.atWarmup = n.st.Served()
			}
		}
	})
	if dep.Autoscale != nil {
		dep.Autoscale(&Control{r})
	}
	if cfg.Rate != nil {
		eng.Post(0, r.pump, 0)
	} else {
		for c := 0; c < cfg.Clients; c++ {
			// Stagger arrivals across one RTT to avoid a synchronized start.
			eng.Post(eng.Uniform(0, des.FromDuration(2*time.Millisecond)), r.issueH, c)
		}
	}
	r.res.Events = eng.Run(r.end)

	interval := (r.end - r.warmup).Seconds()
	r.res.Throughput = float64(r.completed) / interval
	r.res.Routers = r.report(r.routers, interval)
	r.res.QoS = r.report(r.qos, interval)
	return r.res, nil
}

// run is one simulation in progress. Requests live in reqs, recycled
// through free, and move between stages as events naming their index.
type run struct {
	dep Deployment
	cfg RunConfig
	eng *des.Engine
	res Result // Latency, Degraded and Keys accumulate here
	adm *admission.Table

	routers, qos []*node
	live         []int // indexes of the routers receiving new requests
	reqs         []request
	free         []int

	arrive, toQoS, reply, issueH, pump des.Handler

	warmup, end des.Time
	rr          int // round-robin cursor over live
	arrivals    int // open loop: requests issued, each its own client
	completed   int64
}

type node struct {
	sim.Node
	st       *des.Station
	svc      des.Time // mean service time
	atWarmup int64    // jobs served when the measured interval began
	defaults int64    // default replies given for this QoS node
}

// answer is how a request's reply was produced.
type answer uint8

const (
	decided   answer = iota // the QoS node decided it
	degraded                // its router's waiting room was full
	defaulted               // its QoS node was down
)

type request struct {
	start, reach des.Time // reach: client -> router, paid again on the way back
	client       int
	router, qos  int
	key          string // "" without RunConfig.Rules
	loris        bool
	answer       answer
}

func (r *run) newNode(n sim.Node, queueLimit int, done func(int)) *node {
	return &node{Node: n, st: des.NewStation(r.eng, n.Workers(), queueLimit, done), svc: des.Ceil(n.ServiceTime())}
}

func (r *run) addRouter(n sim.Node) {
	r.live = append(r.live, len(r.routers))
	r.routers = append(r.routers, r.newNode(n, r.dep.RouterQueue, r.routed))
}

func (r *run) report(nodes []*node, interval float64) []NodeReport {
	out := make([]NodeReport, len(nodes))
	for i, n := range nodes {
		load := float64(n.st.Served()-n.atWarmup) / interval
		out[i] = NodeReport{Node: n.Node, Throughput: load, CPU: n.CPUUtilization(load), DefaultReplies: n.defaults}
		if r.warmup > 0 {
			out[i].WarmupThroughput = float64(n.atWarmup) / r.warmup.Seconds()
		}
	}
	return out
}

func (r *run) clock() time.Time { return time.Unix(0, int64(r.eng.Now())) }

// pumpArrival is the open-loop source: one request now, the next after an
// exponential gap at the current rate.
func (r *run) pumpArrival(int) {
	now := r.eng.Now()
	next := des.FromDuration(time.Millisecond) // while the rate is not positive, look again in 1 ms
	if rate := r.cfg.Rate(time.Duration(now)); rate > 0 {
		r.issue(r.arrivals)
		r.arrivals++
		next = r.eng.Exp(des.FromSeconds(1 / rate))
	}
	if now < r.end {
		r.eng.PostAfter(next, r.pump, 0)
	}
}

func (r *run) issue(client int) {
	id := len(r.reqs)
	if n := len(r.free); n > 0 {
		id, r.free = r.free[n-1], r.free[:n-1]
	} else {
		r.reqs = append(r.reqs, request{})
	}
	q := &r.reqs[id]
	*q = request{start: r.eng.Now(), client: client}
	if keys := r.res.Keys; keys != nil {
		q.key = r.cfg.Keys.Next()
		k := keys[q.key]
		if k == nil {
			k = new(KeyTally)
			keys[q.key] = k
		}
		k.Requested++
	}
	q.qos = r.eng.Rand().Intn(len(r.qos))
	q.loris = r.cfg.Loris > 0 && r.eng.Rand().Float64() < r.cfg.Loris
	if r.dep.Mode == DNSPinned {
		// Each client machine re-resolves when its TTL expires; round-robin
		// DNS answers rotate, so machine m gets router (m + epoch) mod M.
		epoch := int(r.eng.Now() / des.FromDuration(DNSTTL))
		q.router = r.live[(client%r.cfg.ClientNodes+epoch)%len(r.live)]
		q.reach = des.FromDuration(ClientToLB)
	} else {
		r.rr = (r.rr + 1) % len(r.live)
		q.router = r.live[r.rr]
		q.reach = des.FromDuration(ClientToLB + LBToRouter)
	}
	r.eng.PostAfter(q.reach, r.arrive, id)
}

func (r *run) arriveAtRouter(id int) {
	q := &r.reqs[id]
	rt := r.routers[q.router]
	svc := lorisFactor * rt.svc
	if !q.loris {
		svc = r.eng.Exp(rt.svc)
	}
	if !rt.st.Submit(svc, id) {
		q.answer = degraded
		r.eng.PostAfter(q.reach, r.reply, id)
	}
}

// routed runs when a router has handled a request: it goes on to its QoS
// node, or, while that node is down, back with the default reply once the
// retries are spent.
func (r *run) routed(id int) {
	q := &r.reqs[id]
	o, now := r.dep.Outage, r.eng.Now()
	if o.From > 0 && q.qos == o.Node && now >= des.FromDuration(o.From) && (o.To <= o.From || now < des.FromDuration(o.To)) {
		q.answer = defaulted
		r.eng.PostAfter(des.FromDuration(retryBudget)+q.reach, r.reply, id)
		return
	}
	r.eng.PostAfter(des.FromDuration(RouterToQoS), r.toQoS, id)
}

func (r *run) arriveAtQoS(id int) {
	n := r.qos[r.reqs[id].qos]
	n.st.Submit(r.eng.Exp(n.svc), id)
}

// decided runs when a QoS node has handled a request: the admission table,
// if any, decides it, and the answer travels back to the client.
func (r *run) decided(id int) {
	q := &r.reqs[id]
	if k := r.res.Keys[q.key]; k != nil {
		if r.adm.Decide(wire.Request{Key: q.key, Cost: 1}).Allow {
			k.Admitted++
		} else {
			k.Rejected++
		}
	}
	r.eng.PostAfter(des.FromDuration(RouterToQoS)+q.reach, r.reply, id)
}

// replied runs when an answer reaches its client, which then issues its
// next request in closed loop.
func (r *run) replied(id int) {
	q := r.reqs[id]
	r.free = append(r.free, id)
	now := r.eng.Now()
	if now > r.warmup && now <= r.end {
		switch q.answer {
		case decided:
			r.completed++
			if !q.loris {
				r.res.Latency.Record(int64(now - q.start))
			}
		case degraded:
			r.res.Degraded++
		case defaulted:
			r.qos[q.qos].defaults++
		}
	}
	if r.cfg.Rate == nil && now < r.end {
		r.issue(q.client)
	}
}
