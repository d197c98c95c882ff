package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/bucket"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/dns"
	"repro/internal/minisql"
	"repro/internal/store"
	"repro/internal/transport"
)

const (
	defaultResident = 10000 // rules seeded for the resident workloads
	// defaultWindows × opsAt20 checks per client make one run at -seconds 20.
	// -seconds scales the per-window count, never the wall clock, so
	// allocation, query and resident-key counts repeat exactly and a slower
	// build cannot shrink its own peak_rss_mb.
	defaultWindows = 20
	// chunkOps checks per client (10-30 ms) run between calibration bursts.
	chunkOps  = 250
	wallCap   = 120 * time.Second
	unlimited = 1e12
)

// workload is one traffic mix. why is the one-line reason in BENCHMARK.json.
type workload struct {
	name     string
	mode     cluster.Mode
	resident bool // seeded rules and uniform draws; otherwise first-sight spray
	sync     bool // a third goroutine edits rules and forces SyncOnce per window
	opsAt20  int  // checks per client per window at -seconds 20
	why      string
}

var workloads = []workload{
	{name: "gw-resident", mode: cluster.Gateway, resident: true, opsAt20: 4000,
		why: "Fig 1a: client -> lb -> router -> UDP -> qosserver on 10k resident rules; the only mix where lb works; 20 windows x 4000 checks x 2 clients"},
	{name: "dns-resident", mode: cluster.DNS, resident: true, opsAt20: 7000,
		why: "Fig 1b: resolver + direct router call on the same rules; bypasses lb, so an lb change must not move it; 20 windows x 7000 checks x 2 clients"},
	{name: "dns-miss", mode: cluster.DNS, opsAt20: 4000,
		why: "every key is first-sight: installRule -> store -> minisql over TCP, three maps grown per key; peak_rss_mb shows unbounded state; 20 x 4000 x 2"},
	{name: "dns-sync", mode: cluster.DNS, resident: true, sync: true, opsAt20: 6000,
		why: "dns-resident reads beside rule edits + SyncOnce of 10k keys per window (0.83 point queries per check), new verdicts verified; 20 x 6000 x 2"},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func keyName(i int) string { return fmt.Sprintf("key-%05d", i) }

// sprayKey names client's n-th first-sight key.
func sprayKey(seed int64, client, n int) string {
	return fmt.Sprintf("spray-%d-%d-%d", seed, client, n)
}

// ruleFor is the seeded rule of resident key i: deny-all or effectively
// unlimited. Every 10th key starts denied.
func ruleFor(i int, deny bool) bucket.Rule {
	if deny {
		return bucket.DenyAll(keyName(i))
	}
	return bucket.Rule{Key: keyName(i), RefillRate: unlimited, Capacity: unlimited, Credit: unlimited}
}

// loader is one closed-loop client goroutine's state.
type loader struct {
	id    int
	rng   *rand.Rand
	check func(key string) (bool, error)
	keys  []string  // this window's first-sight keys (spray workloads)
	next  int       // index into keys
	lat   []float64 // per-check latency of the current chunk, ns
	spans []clientSpan
	spray int // first-sight keys named so far

	attempted, failed int64
}

// verify counts one check against its expected verdict.
func (l *loader) verify(got bool, err error, want bool) {
	l.attempted++
	if err != nil || got != want {
		l.failed++
	}
}

// env is a booted, warmed deployment plus its load goroutines.
type env struct {
	w    *workload
	seed int64
	c    *cluster.Cluster
	keys []string
	deny []bool // expected verdict per resident key
	// dns-sync: clients draw from keys[:synced] (the first 90 %); each pass
	// the editor flips len(keys)/100 rules of the rest.
	synced  int
	loaders []*loader
	editor  *loader // dns-sync's third goroutine
	passes  int     // sync passes issued
	// syncKeys sums TableLen() at each SyncOnce the benchmark issued:
	// SyncOnce does not bump DBQueries and minisql.Server has no statement
	// counter, so the benchmark counts what it asked for.
	syncKeys int64
	// gate freezes the editor for the length of a calibration burst (see
	// pausable): the burst must time the stub alone, not the stub against a
	// sync pass.
	gate    sync.RWMutex
	pool    *minisql.Pool // dns-sync's gated database client
	tr      *collector    // non-nil while traced windows run
	samples []float64     // this window's latencies, ns, chunk by chunk
	// The same samples, each scaled by its chunk's calibration: by the
	// bursts' mean for p99, by their median for p50 (see rtt).
	byMean, byMedian []float64
}

// close tears the deployment down.
func (e *env) close() {
	e.c.Close()
	if e.pool != nil {
		e.pool.Close()
	}
}

// newChecker builds the client-visible call for one goroutine: the client
// library against the gateway, or resolve-then-call in DNS mode.
func newChecker(c *cluster.Cluster) func(string) (bool, error) {
	if c.LB != nil {
		return client.New(c.LB.Addr()).Check
	}
	resolver := dns.NewResolver(c.DNS)
	byAddr := map[string]*client.Client{}
	return func(key string) (bool, error) {
		addr, err := resolver.ResolveOne(cluster.Domain)
		if err != nil {
			return false, err
		}
		cl := byAddr[addr]
		if cl == nil {
			cl = client.New(addr)
			byAddr[addr] = cl
		}
		return cl.Check(key)
	}
}

// setup boots the stack, seeds rules, checks every resident key once (so
// buckets are installed and connections open) and runs one discarded
// window, all on sw's clock: the time it adds to sw is setup_s.
func setup(w *workload, o options, sw *stopwatch) (*env, error) {
	cfg := cluster.Config{Routers: 1, QoSServers: 2, Audit: true, Mode: w.mode}
	seed, ops := o.seed, o.opsFor(w)
	e := &env{w: w, seed: seed}
	if w.resident {
		e.keys = make([]string, o.resident)
		e.deny = make([]bool, o.resident)
		e.synced = o.resident
		if w.sync {
			e.synced = o.resident * 9 / 10
		}
		cfg.Rules = make([]bucket.Rule, o.resident)
		for i := range e.keys {
			e.keys[i], e.deny[i] = keyName(i), i%10 == 0
			cfg.Rules[i] = ruleFor(i, e.deny[i])
		}
	} else {
		cfg.DefaultRule = bucket.Rule{Capacity: 1, Credit: 1}
	}
	err := sw.time(func() (err error) {
		e.c, err = cluster.New(cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", w.name, err)
	}
	for i := range loadConns {
		e.loaders = append(e.loaders, &loader{
			id:    i,
			rng:   rand.New(rand.NewSource(seed*1000 + int64(i))),
			check: newChecker(e.c),
		})
	}
	if w.sync {
		e.editor = &loader{id: loadConns, check: newChecker(e.c)}
		// The QoS servers hold this *store.Store; nothing has used it since
		// boot seeded the rules, so its executor can still be swapped.
		e.pool = minisql.NewPool(e.c.DBServer.Addr(), 8)
		*e.c.Store = *store.New(pausable{inner: e.pool, gate: &e.gate})
	}
	for lo := 0; lo < len(e.keys) && err == nil; lo += 2 * chunkOps {
		err = sw.time(func() error {
			for i := lo; i < min(lo+2*chunkOps, len(e.keys)); i++ {
				l := e.loaders[i%len(e.loaders)]
				got, err := l.check(e.keys[i])
				l.verify(got, err, !e.deny[i])
			}
			return nil
		})
	}
	if err == nil {
		_, err = e.window(sw, ops, time.Now().Add(wallCap))
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// work is the process-wide cost of one measured stretch.
type work struct {
	elapsed        time.Duration
	mallocs, bytes uint64
	cpu            time.Duration
}

func (w *work) add(o work) {
	w.elapsed += o.elapsed
	w.mallocs += o.mallocs
	w.bytes += o.bytes
	w.cpu += o.cpu
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // raw.cpu_us_per_check then reads 0; nothing gated depends on it
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measured runs f and reports what the whole process spent meanwhile.
func measured(f func()) work {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	f()
	w := work{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&after)
	w.mallocs, w.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	return w
}

// windowStats is what one window yields. Calibration bursts are outside
// every figure here.
type windowStats struct {
	work                            // summed over the window's chunks
	checks                  int64   // by the loaders; the editor's 100 are verified, not timed
	calSeconds              float64 // elapsed, chunk by chunk calibrated
	p50Raw, p99Raw, p999Raw float64 // ns
	p50Cal, p99Cal          float64 // ns, over samples scaled chunk by chunk
}

// window has every loader perform ops checks in chunks of chunkOps, with a
// calibration burst after each chunk, while on dns-sync the editor makes one
// sync pass beside them. Checks not started by deadline count as failed.
func (e *env) window(sw *stopwatch, ops int, deadline time.Time) (windowStats, error) {
	// First-sight keys are named before the clock starts.
	for _, l := range e.loaders {
		l.keys, l.next = l.keys[:0], 0
		for ; !e.w.resident && len(l.keys) < ops; l.spray++ {
			l.keys = append(l.keys, sprayKey(e.seed, l.id, l.spray))
		}
	}
	ws := windowStats{checks: int64(ops * len(e.loaders))}
	first := len(sw.pieces)
	e.samples, e.byMean, e.byMedian = e.samples[:0], e.byMean[:0], e.byMedian[:0]
	editorDone := make(chan error, 1)
	if e.editor != nil {
		go func() { editorDone <- e.syncPass() }()
	}
	burst := func() error {
		e.gate.Lock()
		defer e.gate.Unlock()
		return sw.burst()
	}
	for done := 0; done < ops; done += chunkOps {
		n := min(chunkOps, ops-done)
		lo := len(e.samples)
		wk := measured(func() {
			var wg sync.WaitGroup
			for _, l := range e.loaders {
				wg.Add(1)
				go func() {
					defer wg.Done()
					e.load(l, n, deadline)
				}()
			}
			wg.Wait()
		})
		ws.add(wk)
		for _, l := range e.loaders {
			e.samples = append(e.samples, l.lat...)
		}
		sw.add(piece{elapsed: wk.elapsed.Seconds(), lo: lo, hi: len(e.samples)})
		if err := burst(); err != nil {
			return ws, err
		}
	}
	// A pass that outlasts the reads is window time too, in pieces no longer
	// than a chunk.
	for editing := e.editor != nil; editing; {
		var err error
		wk := measured(func() {
			select {
			case err = <-editorDone:
				editing = false
			case <-time.After(20 * time.Millisecond):
			}
		})
		if err != nil {
			return ws, err
		}
		ws.add(wk)
		sw.add(piece{elapsed: wk.elapsed.Seconds()})
		if err := burst(); err != nil {
			return ws, err
		}
	}

	for _, p := range sw.pieces[first:] {
		ws.calSeconds += p.elapsed * p.k
		for _, d := range e.samples[p.lo:p.hi] {
			e.byMean = append(e.byMean, d*p.k)
			e.byMedian = append(e.byMedian, d*p.kMedian)
		}
	}
	slices.Sort(e.samples)
	slices.Sort(e.byMean)
	slices.Sort(e.byMedian)
	ws.p50Raw, ws.p99Raw, ws.p999Raw = quantile(e.samples, 0.50), quantile(e.samples, 0.99), quantile(e.samples, 0.999)
	ws.p50Cal, ws.p99Cal = quantile(e.byMedian, 0.50), quantile(e.byMean, 0.99)
	return ws, nil
}

// load is one client's closed loop for one chunk.
func (e *env) load(l *loader, ops int, deadline time.Time) {
	l.lat = l.lat[:0]
	for n := range ops {
		key, want := "", true
		if e.w.resident {
			i := l.rng.Intn(e.synced)
			key, want = e.keys[i], !e.deny[i]
		} else {
			key = l.keys[l.next]
			l.next++
		}
		t0 := time.Now()
		got, err := l.check(key)
		t1 := time.Now()
		l.verify(got, err, want)
		l.lat = append(l.lat, float64(t1.Sub(t0)))
		if e.tr != nil {
			l.spans = append(l.spans, clientSpan{t0.UnixNano(), t1.UnixNano()})
			if n%drainEvery == 0 {
				e.tr.drain()
			}
		}
		if t1.After(deadline) {
			rest := int64(ops - n - 1)
			l.attempted += rest
			l.failed += rest
			return
		}
	}
}

// pausable is the rules database as dns-sync's QoS servers see it: the same
// pooled TCP client the cluster builds, behind a gate. SyncOnce cannot be
// interrupted from outside and one pass lasts about as long as a window, so
// without this the calibration bursts would either time the stub against the
// sync work or be 350 ms apart, and the machine changes faster than that.
type pausable struct {
	inner store.Executor
	gate  *sync.RWMutex
}

func (p pausable) Execute(sql string, args ...minisql.Value) (minisql.Result, error) {
	p.gate.RLock()
	defer p.gate.RUnlock()
	return p.inner.Execute(sql, args...)
}

// syncPass is dns-sync's maintenance beside the reads: flip 1 % of the rules
// in the database, force a sync on every QoS master, then check that
// each flipped key now answers with its new verdict.
func (e *env) syncPass() error {
	flipped := make([]int, len(e.keys)/100)
	for j := range flipped {
		k := e.synced + (e.passes*len(flipped)+j)%(len(e.keys)-e.synced)
		e.deny[k] = !e.deny[k]
		if err := e.c.Store.Put(ruleFor(k, e.deny[k])); err != nil {
			return fmt.Errorf("dns-sync: edit rule %d: %w", k, err)
		}
		flipped[j] = k
	}
	e.passes++
	for _, p := range e.c.QoS {
		e.syncKeys += int64(p.Master.TableLen())
		p.Master.SyncOnce()
	}
	for _, k := range flipped {
		e.gate.RLock()
		got, err := e.editor.check(e.keys[k])
		e.gate.RUnlock()
		e.editor.verify(got, err, !e.deny[k])
	}
	return nil
}

// tally sums attempted and failed checks over every goroutine, then adds
// what the stack itself reports as lost work: on an unfaulted run a dropped
// datagram, an exhausted retry budget or a router-fabricated reply is a
// failure even if the verdict happened to match.
func (e *env) tally() (attempted, failed int64) {
	ls := e.loaders
	if e.editor != nil {
		ls = append(slices.Clone(ls), e.editor)
	}
	for _, l := range ls {
		attempted += l.attempted
		failed += l.failed
	}
	cn := e.counters()
	failed += cn.dropped + cn.routerTimeouts + cn.defaultReplies
	return attempted, min(failed, attempted)
}

// counters is a snapshot of the packages' public Stats().
type counters struct {
	lbProxied, lbBackendErrors       int64
	routerTimeouts, defaultReplies   int64
	attempts, timeouts               int64
	dbQueries, defaultHits, degraded int64
	dropped, tableLen, syncKeys      int64
}

func (e *env) counters() counters {
	var cn counters
	if e.c.LB != nil {
		s := e.c.LB.Stats()
		cn.lbProxied, cn.lbBackendErrors = s.Proxied, s.BackendErrors
	}
	for _, r := range e.c.Routers {
		s := r.Stats()
		cn.routerTimeouts += s.Timeouts
		cn.defaultReplies += s.DefaultReplies
		// NewStats hands back the counters the router registered on its own
		// registry — the public way to read its UDP client layer.
		ts := transport.NewStats(r.Registry())
		cn.attempts += ts.Attempts.Value()
		cn.timeouts += ts.Timeouts.Value()
	}
	for _, p := range e.c.QoS {
		s := p.Master.Stats()
		cn.dbQueries += s.DBQueries
		cn.defaultHits += s.DefaultHit
		cn.degraded += s.Degraded
		cn.dropped += s.Dropped
		cn.tableLen += int64(p.Master.TableLen())
	}
	cn.syncKeys = e.syncKeys
	return cn
}

// perCheck writes the work-per-check ledger for the checks between two
// snapshots.
func perCheck(values map[string]float64, from, to counters, checks int64) {
	n := float64(checks)
	values["lb.proxied_per_check"] = float64(to.lbProxied-from.lbProxied) / n
	values["lb.backend_errors"] = float64(to.lbBackendErrors - from.lbBackendErrors)
	values["router.timeouts"] = float64(to.routerTimeouts - from.routerTimeouts)
	values["router.default_replies"] = float64(to.defaultReplies - from.defaultReplies)
	values["transport.attempts_per_check"] = float64(to.attempts-from.attempts) / n
	values["transport.timeouts_per_check"] = float64(to.timeouts-from.timeouts) / n
	values["qosserver.db_queries_per_check"] = float64(to.dbQueries-from.dbQueries) / n
	values["qosserver.default_hits_per_check"] = float64(to.defaultHits-from.defaultHits) / n
	values["qosserver.degraded"] = float64(to.degraded - from.degraded)
	values["qosserver.dropped"] = float64(to.dropped - from.dropped)
	values["qosserver.table_len"] = float64(to.tableLen)
	values["qosserver.sync_keys_per_check"] = float64(to.syncKeys-from.syncKeys) / n
}

// phase is a run of consecutive windows.
type phase struct {
	checks                          int64
	thrCal, p50Cal, p99Cal          float64 // midmean over windows of calibrated values
	thrRaw, p50Raw, p99Raw, p999Raw float64 // midmean over windows, as measured
	allocs, bytes, cpuUs            float64 // per check, over all windows
	rtts                            []float64
}

// measure runs n windows on sw's clock.
func (e *env) measure(sw *stopwatch, n, ops int, deadline time.Time) (phase, error) {
	var ph phase
	var thrCal, p50Cal, p99Cal, thrRaw, p50Raw, p99Raw, p999Raw []float64
	var total work
	first := len(sw.pieces)
	for range n {
		ws, err := e.window(sw, ops, deadline)
		if err != nil {
			return ph, err
		}
		c := float64(ws.checks)
		thrRaw, thrCal = append(thrRaw, c/ws.elapsed.Seconds()), append(thrCal, c/ws.calSeconds)
		p50Raw, p50Cal = append(p50Raw, ws.p50Raw/1e3), append(p50Cal, ws.p50Cal/1e3)
		p99Raw, p99Cal = append(p99Raw, ws.p99Raw/1e3), append(p99Cal, ws.p99Cal/1e3)
		p999Raw = append(p999Raw, ws.p999Raw/1e3)
		ph.checks += ws.checks
		total.add(ws.work)
	}
	ph.thrCal, ph.p50Cal, ph.p99Cal = midmean(thrCal), midmean(p50Cal), midmean(p99Cal)
	ph.thrRaw, ph.p50Raw, ph.p99Raw, ph.p999Raw = midmean(thrRaw), midmean(p50Raw), midmean(p99Raw), midmean(p999Raw)
	c := float64(ph.checks)
	ph.allocs, ph.bytes, ph.cpuUs = float64(total.mallocs)/c, float64(total.bytes)/c, float64(total.cpu.Microseconds())/c
	ph.rtts = sw.rtts(first)
	return ph, nil
}

// raw writes the phase's uncalibrated twins and the machine's state.
func (ph phase) raw(values map[string]float64) {
	values["raw.throughput_rps"] = ph.thrRaw
	values["raw.check_p50_us"] = ph.p50Raw
	values["raw.check_p99_us"] = ph.p99Raw
	values["raw.check_p999_us"] = ph.p999Raw
	values["raw.cpu_us_per_check"] = ph.cpuUs
	values["calib.http_rtt_us"] = median(ph.rtts) / 1e3
	values["calib.spread_frac"] = spread(ph.rtts)
}
