package main

import (
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"time"

	"repro/internal/bucket"
	"repro/internal/client"
	"repro/internal/dns"
	"repro/internal/lb"
	"repro/internal/membership"
	"repro/internal/minisql"
	"repro/internal/qosserver"
	"repro/internal/router"
	"repro/internal/store"
	"repro/internal/table"
	"repro/internal/transport"
	"repro/internal/wire"
)

// layerRun times public functions of one package at a time from a single
// goroutine, each behind a stub of the layer below. A call is timed in
// batches (clock reads cost as much as the cheapest ops), the median batch
// is reported, and every figure is calibrated by stub bursts taken right
// before and after it.
type layerRun struct {
	cal     *calibrator
	batches int // timed batches per op; warm-up is a tenth of that
	keys    int // resident keys where a layer needs a working set
	values  map[string]float64
}

const (
	layerBatchesAt20 = 100
	slowBatch        = 100  // calls per batch for µs-scale ops: 10k timed calls
	slowPerBurst     = 5    // a burst every 500 calls, like the load's chunks
	fastBatch        = 5000 // calls per batch for ns-scale ops
	fastPerBurst     = 50
	layerKeysAt20    = 10000
	udpTimeout       = 20 * time.Millisecond // what internal/cluster gives its routers
)

// timeOp returns op's calibrated median ns per call and mallocs per call.
// perBurst batches run between calibration bursts.
func (lr *layerRun) timeOp(batch, perBurst int, op func() error) (ns, allocs float64, err error) {
	for range max(lr.batches/10, 1) * batch {
		if err := op(); err != nil {
			return 0, 0, err
		}
	}
	sw, err := newStopwatch(lr.cal)
	if err != nil {
		return 0, 0, err
	}
	var total work
	for done := 0; done < lr.batches; done += perBurst {
		total.add(measured(func() {
			for range min(perBurst, lr.batches-done) {
				start := time.Now()
				for range batch {
					if err = op(); err != nil {
						return
					}
				}
				sw.add(piece{elapsed: time.Since(start).Seconds()})
			}
		}))
		if err != nil {
			return 0, 0, err
		}
		if err := sw.burst(); err != nil {
			return 0, 0, err
		}
	}
	per := make([]float64, len(sw.pieces))
	for i, p := range sw.pieces {
		per[i] = p.elapsed * p.k * 1e9 / float64(batch)
	}
	return median(per), float64(total.mallocs) / float64(lr.batches*batch), nil
}

// us times a µs-scale op and returns its µs and mallocs per call; callers
// file the figure, or its difference from a baseline, under a metric name.
func (lr *layerRun) us(what string, op func() error) (us, allocs float64, err error) {
	ns, allocs, err := lr.timeOp(slowBatch, slowPerBurst, op)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", what, err)
	}
	return ns / 1e3, allocs, nil
}

// ns times a ns-scale op and files it as <name>_ns.
func (lr *layerRun) ns(name string, op func() error) error {
	ns, _, err := lr.timeOp(fastBatch, fastPerBurst, op)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	lr.values[name+"_ns"] = ns
	return nil
}

// runLayers measures every isolated per-layer metric at the size -seconds
// asks for: layerBatchesAt20 batches over layerKeysAt20 keys at 20.
func runLayers(cal *calibrator, seconds int) (map[string]float64, error) {
	lr := &layerRun{cal: cal, values: map[string]float64{},
		batches: max(layerBatchesAt20*seconds/20, 10), keys: max(layerKeysAt20*seconds/20, 100)}
	for _, step := range []func() error{lr.httpLayers, lr.udpLayers, lr.pureLayers, lr.dbLayers} {
		if err := step(); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
	}
	return lr.values, nil
}

// httpLayers: the client library and the LB, each against the stdlib stub.
func (lr *layerRun) httpLayers() error {
	cl := client.New(lr.cal.addr)
	check, checkAllocs, err := lr.us("client.check", func() error { _, err := cl.Check("key-00001"); return err })
	if err != nil {
		return err
	}
	lr.values["client.check_us"], lr.values["client.check_allocs"] = check, checkAllocs
	hc := &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	direct, directAllocs, err := lr.us("stub GET", func() error { return stubGet(hc, lr.cal.url) })
	if err != nil {
		return err
	}
	l, err := lb.New(lb.Config{Addr: "127.0.0.1:0", Backends: []string{lr.cal.addr}})
	if err != nil {
		return err
	}
	defer l.Close()
	via := "http://" + l.Addr() + "/qos?key=calibration"
	through, throughAllocs, err := lr.us("GET through lb", func() error { return stubGet(hc, via) })
	if err != nil {
		return err
	}
	lr.values["lb.proxy_us"], lr.values["lb.proxy_allocs"] = through-direct, throughAllocs-directAllocs
	return nil
}

// udpLayers: the UDP exchange against an echo handler, the router over it,
// and the real QoS server under the same client.
func (lr *layerRun) udpLayers() error {
	echo, err := transport.NewServer("127.0.0.1:0", func(wire.Request) wire.Response { return wire.Response{Allow: true} })
	if err != nil {
		return err
	}
	defer echo.Close()
	tcfg := transport.Config{Timeout: udpTimeout}
	req := wire.Request{Key: "key-00001", Cost: 1}

	tc, err := transport.Dial(echo.Addr(), tcfg)
	if err != nil {
		return err
	}
	defer tc.Close()
	do, doAllocs, err := lr.us("transport.do", func() error { _, err := tc.Do(req); return err })
	if err != nil {
		return err
	}
	lr.values["transport.do_us"], lr.values["transport.do_allocs"] = do, doAllocs

	r, err := router.New(router.Config{Addr: "127.0.0.1:0", Backends: []string{echo.Addr()}, Transport: tcfg})
	if err != nil {
		return err
	}
	defer r.Close()
	route, routeAllocs, err := lr.us("router.route", func() error {
		if resp := r.Route(req); !resp.Allow {
			return fmt.Errorf("stub backend answered %s", resp.Status)
		}
		return nil
	})
	if err != nil {
		return err
	}
	lr.values["router.route_us"], lr.values["router.route_allocs"] = route, routeAllocs
	hc := &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	get := "http://" + r.Addr() + wire.FormatHTTPQuery(req)
	viaHTTP, httpAllocs, err := lr.us("GET on router", func() error { return stubGet(hc, get) })
	if err != nil {
		return err
	}
	lr.values["router.http_us"], lr.values["router.http_allocs"] = viaHTTP-route, httpAllocs-routeAllocs

	q, err := qosserver.New(qosserver.Config{Addr: "127.0.0.1:0", Audit: true,
		DefaultRule: bucket.Rule{RefillRate: unlimited, Capacity: unlimited, Credit: unlimited}})
	if err != nil {
		return err
	}
	defer q.Close()
	qc, err := transport.Dial(q.Addr(), tcfg)
	if err != nil {
		return err
	}
	defer qc.Close()
	exchange, _, err := lr.us("exchange with qosserver", func() error { _, err := qc.Do(req); return err })
	if err != nil {
		return err
	}
	lr.values["qosserver.udp_us"] = exchange - do

	keys := make([]wire.Request, lr.keys)
	for i := range keys {
		keys[i] = wire.Request{Key: keyName(i), Cost: 1}
	}
	i := 0
	return lr.ns("qosserver.decide", func() error {
		q.Decide(keys[i%lr.keys])
		i++
		return nil
	})
}

// pureLayers: the in-memory pieces nobody should spend time optimising.
func (lr *layerRun) pureLayers() error {
	picker, err := membership.NewPicker("")
	if err != nil {
		return err
	}
	if err := lr.ns("membership.pick", func() error { _, err := picker.Pick("key-00001", 2); return err }); err != nil {
		return err
	}

	zone := dns.NewServer()
	defer zone.Close()
	zone.SetA("janus.bench", 30*time.Second, "127.0.0.1:1")
	resolver := dns.NewResolver(zone)
	if err := lr.ns("dns.resolve", func() error { _, err := resolver.ResolveOne("janus.bench"); return err }); err != nil {
		return err
	}

	req := wire.Request{ID: 7, Key: "key-00001", Cost: 1}
	var buf []byte
	var decoded wire.Request
	if err := lr.ns("wire.codec", func() error {
		var err error
		if buf, err = wire.AppendRequest(buf[:0], req); err != nil {
			return err
		}
		if err = wire.DecodeRequestReuse(buf, &decoded); err != nil {
			return err
		}
		if buf, err = wire.AppendResponse(buf[:0], wire.Response{ID: decoded.ID, Allow: true}); err != nil {
			return err
		}
		_, err = wire.DecodeResponse(buf)
		return err
	}); err != nil {
		return err
	}
	query := url.Values{wire.HTTPKeyParam: {req.Key}}
	if err := lr.ns("wire.http", func() error {
		_ = wire.FormatHTTPQuery(req)
		if _, err := wire.ParseHTTPQuery(query); err != nil {
			return err
		}
		_, err := wire.ParseHTTPBody(wire.BodyAllow)
		return err
	}); err != nil {
		return err
	}

	now := time.Now()
	full := bucket.Rule{RefillRate: unlimited, Capacity: unlimited, Credit: unlimited}
	tbl := table.New("")
	keys := make([]string, lr.keys)
	for i := range keys {
		keys[i] = keyName(i)
		tbl.Put(keys[i], bucket.New(full, now))
	}
	i := 0
	if err := lr.ns("table.get", func() error {
		if tbl.Get(keys[i%lr.keys]) == nil {
			return fmt.Errorf("key %d missing", i%lr.keys)
		}
		i++
		return nil
	}); err != nil {
		return err
	}
	// New keys are named before the clock starts: only the insert is timed.
	fresh := make([]string, (lr.batches+max(lr.batches/10, 1))*fastBatch)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("new-%d", i)
	}
	i = 0
	if err := lr.ns("table.getorcreate", func() error {
		tbl.GetOrCreate(fresh[i], func() *bucket.Bucket { return bucket.New(full, now) })
		i++
		return nil
	}); err != nil {
		return err
	}
	b := bucket.New(full, now)
	return lr.ns("bucket.tryconsume", func() error {
		if !b.TryConsume(1, now) {
			return fmt.Errorf("unlimited bucket denied")
		}
		return nil
	})
}

// dbLayers: the rules database on its own, over TCP, and under a QoS server
// that misses or re-syncs.
func (lr *layerRun) dbLayers() error {
	engine := minisql.NewEngine()
	srv, err := minisql.NewServer(engine, "127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	pool := minisql.NewPool(srv.Addr(), 8)
	defer pool.Close()
	st := store.New(pool)
	if err := st.Init(); err != nil {
		return err
	}
	rules := make([]bucket.Rule, lr.keys)
	for i := range rules {
		rules[i] = ruleFor(i, false)
	}
	if err := st.PutAll(rules); err != nil {
		return err
	}

	i := 0
	const point = `SELECT key, refill_rate, capacity, credit FROM qos_rules WHERE key = ?`
	for _, m := range []struct {
		name string
		op   func() error
	}{
		{"store.get_us", func() error {
			_, found, err := st.Get(rules[i%lr.keys].Key)
			if err == nil && !found {
				err = fmt.Errorf("rule %d missing", i%lr.keys)
			}
			return err
		}},
		{"store.put_us", func() error { return st.Put(rules[i%lr.keys]) }},
		{"minisql.select_us", func() error {
			_, err := engine.Execute(point, minisql.Text(rules[i%lr.keys].Key))
			return err
		}},
	} {
		us, _, err := lr.us(m.name, func() error { i++; return m.op() })
		if err != nil {
			return err
		}
		lr.values[m.name] = us
	}

	// Sync: every resident key costs one point query per pass.
	q, err := qosserver.New(qosserver.Config{Addr: "127.0.0.1:0", Audit: true, Store: st})
	if err != nil {
		return err
	}
	defer q.Close()
	for _, r := range rules {
		q.Decide(wire.Request{Key: r.Key, Cost: 1})
	}
	sw, err := newStopwatch(lr.cal)
	if err != nil {
		return err
	}
	for range 3 {
		if err := sw.time(func() error { q.SyncOnce(); return nil }); err != nil {
			return err
		}
	}
	var passes []float64
	for _, p := range sw.pieces {
		passes = append(passes, p.elapsed*p.k*1e6/float64(q.TableLen()))
	}
	lr.values["qosserver.sync_us_per_key"] = median(passes)

	// Miss: first sight of a key fetches its (absent) rule and grows the
	// table, the defaults set and the audit ledger.
	miss, err := qosserver.New(qosserver.Config{Addr: "127.0.0.1:0", Audit: true, Store: st,
		DefaultRule: bucket.Rule{Capacity: 1, Credit: 1}})
	if err != nil {
		return err
	}
	defer miss.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := 0
	missUs, missAllocs, err := lr.us("qosserver.miss", func() error {
		// Naming the key is part of the timed call; it is ~1% of a miss.
		resp := miss.Decide(wire.Request{Key: fmt.Sprintf("spray-layer-%d", n), Cost: 1})
		n++
		if !resp.Allow {
			return fmt.Errorf("first sight of a key denied (%s)", resp.Status)
		}
		return nil
	})
	if err != nil {
		return err
	}
	lr.values["qosserver.miss_us"], lr.values["qosserver.miss_allocs"] = missUs, missAllocs
	runtime.GC()
	runtime.ReadMemStats(&after)
	lr.values["qosserver.resident_bytes_per_key"] = (float64(after.HeapInuse) - float64(before.HeapInuse)) / float64(miss.TableLen())
	return nil
}
