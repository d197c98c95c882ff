// Package qosserver implements the Janus QoS server node (paper §II-C,
// §III-C).
//
// The major components mirror the paper's Java implementation one-for-one:
//
//   - the local QoS table: a synchronized map from QoS key to leaky bucket
//     (internal/table, 64 independently locked shards), whose value is one
//     entry per resident key holding the bucket, the key's audit account and
//     its default-rule mark;
//   - the UDP listener goroutine, which receives datagrams from the request
//     router and pushes them into a FIFO;
//   - N worker goroutines polling the FIFO (N defaults to the number of
//     available CPUs), which decode the request, make the leaky-bucket
//     decision, and send the response back over UDP — without caring
//     whether the router receives it (the router retries). A CoDel
//     controller on the FIFO's sojourn (codel.go) has them answer with the
//     degraded-mode default instead while a standing queue persists;
//   - the system-maintenance goroutine pulling rule edits from the
//     database's change feed at a configurable interval;
//   - the checkpoint goroutine writing current credits back to the
//     database at a configurable interval;
//   - the high-availability listener serving the local table to a slave
//     (ha.go).
//
// The paper's house-keeping refill thread has no counterpart: buckets apply
// eq. 1–2 lazily at consume time (internal/bucket), which is exact and
// leaves nothing to sweep.
//
// A server never communicates with other QoS servers (§II-D: "There is no
// communication between the QoS servers in Janus. They are totally unaware
// of the existence of each other.").
package qosserver

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/bucket"
	"repro/internal/daemon"
	"repro/internal/events"
	"repro/internal/failpoint"
	"repro/internal/metrics"
	"repro/internal/minisql"
	"repro/internal/store"
	"repro/internal/table"
	"repro/internal/tcp"
	"repro/internal/tick"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Config configures a QoS server node.
type Config struct {
	// Addr is the UDP listen address ("127.0.0.1:0" for ephemeral).
	Addr string
	// Workers is the number of worker goroutines polling the FIFO; 0 means
	// the number of available CPUs (the paper: "N equals to the number of
	// vCPU's available on the QoS server").
	Workers int
	// QueueSize is the FIFO capacity between the listener and the workers.
	QueueSize int
	// CodelTarget is the CoDel sojourn target for the intake FIFO: once
	// the queue-stage sojourn stays at or above it for CodelInterval, the
	// server sheds queued requests by answering them with the degraded-mode
	// default (StatusDegraded, no credit consumed) at the inverse-sqrt
	// control-law cadence until the sojourn recovers. 0 or negative selects
	// DefaultCodelTarget (1ms); CoDel is always on.
	CodelTarget time.Duration
	// CodelInterval is the CoDel interval: how long the sojourn must remain
	// above target before shedding starts, and the base of the control-law
	// cadence. 0 selects DefaultCodelInterval (100ms).
	CodelInterval time.Duration
	// DefaultRule is applied to keys absent from the database (§II-D). Its
	// Key field is ignored. The zero value denies all unknown keys.
	DefaultRule bucket.Rule
	// SyncInterval > 0 enables periodic rule re-synchronization from the
	// database.
	SyncInterval time.Duration
	// CheckpointInterval > 0 enables periodic credit write-back.
	CheckpointInterval time.Duration
	// Store is the database access layer; nil runs the server without a
	// database (every key uses DefaultRule).
	Store *store.Store
	// FailOpen selects the verdict when the database errors during rule
	// fetch: true admits, false denies. The key keeps that verdict until a
	// rule-sync pass reads the database again; then it re-fetches its rule.
	FailOpen bool
	// ReplicationAddr, when non-empty, starts the HA listener on this TCP
	// address so a slave can replicate the local table.
	ReplicationAddr string
	// Clock injects time for tests; nil means time.Now.
	Clock func() time.Time
	// Logger receives operational messages; nil discards.
	Logger *log.Logger
	// Registry receives the server's counters and latency histogram for
	// /metrics exposition; nil creates a private registry (Stats() and the
	// accessors work either way).
	Registry *metrics.Registry
	// Tracer records the worker spans of requests that arrive with a wire
	// trace ID; nil creates a private recorder. The server never samples —
	// the sampling decision is made at the edge and carried in the request.
	Tracer *trace.Recorder
	// Audit enables the online admission-audit ledger (internal/audit):
	// every credit grant and every admission is accounted on the account in
	// the key's table entry, and an audit pass (periodic, plus on-demand at
	// /debug/audit) verifies the conservation bound admitted ≤ C + r·t per
	// resident bucket, exporting violations as
	// janus_qos_audit_overspend_total. Off by default: auditing costs one
	// lock-free float add per admission and no map read or allocation
	// (TestAllocPinAuditedDecide).
	Audit bool
	// AuditInterval is the period of the background audit pass when Audit
	// is enabled; 0 means 1s.
	AuditInterval time.Duration
}

// Stats are cumulative operation counters for one server.
type Stats struct {
	Received int64 // datagrams pulled off the sockets
	// Dropped counts datagrams LOST because the intake FIFO was full — the
	// client saw nothing and must retry. CoDel keeps this near zero: the
	// controller sheds by answering, not by losing.
	Dropped int64
	// Degraded counts request entries ANSWERED with the degraded-mode
	// default (StatusDegraded) by the CoDel controller instead of a real
	// admission decision. The client got a fast, actionable reply; no
	// credit moved.
	Degraded   int64
	Malformed  int64 // datagrams that failed to decode
	Decisions  int64 // admission decisions made
	Allowed    int64
	Denied     int64
	DBQueries  int64 // rule fetches that hit the database
	DefaultHit int64 // decisions served by the default rule
	DBErrors   int64
	SendErrors int64 // response datagrams the kernel refused to send
}

// Add accumulates o into s field by field — the one sum every cluster-wide
// or partition-wide view uses, so a new counter cannot be left out of one.
func (s *Stats) Add(o Stats) {
	s.Received += o.Received
	s.Dropped += o.Dropped
	s.Degraded += o.Degraded
	s.Malformed += o.Malformed
	s.Decisions += o.Decisions
	s.Allowed += o.Allowed
	s.Denied += o.Denied
	s.DBQueries += o.DBQueries
	s.DefaultHit += o.DefaultHit
	s.DBErrors += o.DBErrors
	s.SendErrors += o.SendErrors
}

// Server is a running QoS server node.
type Server struct {
	cfg   Config
	table *table.Sharded[*entry]
	clock func() time.Time

	// The intake (DESIGN.md §3.4): one UDP socket, one FIFO, and the CoDel
	// controller that watches the FIFO's sojourn, in front of cfg.Workers
	// worker goroutines.
	conn *net.UDPConn
	fifo chan packet
	cdl  *codel

	// fetchFailed is set after a first-sight fetch failed and its fallback
	// entry is in the table; the next sync pass that reads the database
	// clears it and scans the table for fallbacks.
	fetchFailed atomic.Bool

	// Per-stage sojourn decomposition (DESIGN.md §6): where a request's
	// time inside this daemon went. queue = socket recv → FIFO dequeue,
	// decide = dequeue → all decisions made, send = decisions → response
	// datagram handed to the kernel, total = recv → sent. curSojournNs
	// holds the queue-stage sojourn of the most recently dequeued packet —
	// the rolling control signal a CoDel-style drop policy will consume.
	sojournQueue  *metrics.Histogram
	sojournDecide *metrics.Histogram
	sojournSend   *metrics.Histogram
	sojournTotal  *metrics.Histogram
	curSojournNs  atomic.Int64

	audit          *audit.Ledger // nil when auditing is disabled
	auditOverspend *metrics.Counter

	// lastSyncNs is the wall time of the last rule-sync pass that read the
	// database to its end (or found the server following a master), read
	// by the readiness probe (a janusd enforcing stale rules should
	// stop taking new traffic before it enforces very old ones).
	lastSyncNs atomic.Int64

	// syncMu runs sync passes one at a time and guards cursor: every edit
	// up to it has been applied. The zero cursor is none yet.
	syncMu sync.Mutex
	cursor minisql.Cursor
	// fromPeer is set when a handoff or an HA snapshot installed rules from
	// a peer's table. They are as current as the peer's cursor, not this
	// server's, and edits the cursor has passed would never be read again,
	// so the next pass scans the whole table.
	fromPeer atomic.Bool
	// following is set while a Replicator copies a master's table into this
	// server (NewReplicator until Stop). Its credits are the master's at the
	// last pull plus refill since, so writing them back would overwrite the
	// master's fresher checkpoint of the same rows; its rules are the
	// master's too, so it does not sync.
	following atomic.Bool

	registry *metrics.Registry
	tracer   *trace.Recorder

	received   *metrics.Counter
	dropped    *metrics.Counter
	codelDrops *metrics.Counter
	malformed  *metrics.Counter
	decisions  *metrics.Counter
	allowed    *metrics.Counter
	denied     *metrics.Counter
	dbQueries  *metrics.Counter
	defaultHit *metrics.Counter
	dbErrors   *metrics.Counter
	sendErrors *metrics.Counter

	// fetchErrLog bounds the rule-fetch error log, which a key spray against
	// a down database would otherwise write once per key.
	fetchErrLog daemon.Throttle

	syncQueries    *metrics.Counter
	syncReconciles *metrics.Counter

	ha *tcp.Server // the replication listener: HA pulls and handoffs

	// loops are the periodic passes: rule sync, checkpoint, audit.
	loops []*tick.Loop

	quit chan struct{}
	wg   sync.WaitGroup

	closeOnce sync.Once
	logger    *log.Logger
}

type packet struct {
	// data is the datagram, in a buffer from packetBufs; the worker returns
	// it once it has decided.
	data  *[]byte
	raddr netip.AddrPort
	// recvNs timestamps the socket read, opening the sojourn clock.
	recvNs int64
}

// entry is everything the server holds for one resident key: the leaky
// bucket, the key's audit account, whether the default rule installed it,
// and whether that was because the rule fetch failed. Every grant
// reinstalls it in place (install), so the account carries across the key's
// residency, and deleting the key from the table drops all of it.
type entry struct {
	bucket.Bucket
	acct audit.Account
	// isDefault marks keys served by the default rule, so responses carry
	// StatusDefaultRule and checkpointing skips them.
	isDefault atomic.Bool
	// fallback marks a key whose first-sight fetch failed: the next sync
	// pass that reads the database evicts it if it is still on the default
	// rule, since no change feed would list its rule.
	fallback atomic.Bool
}

// New starts a QoS server.
func New(cfg Config) (*Server, error) {
	laddr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("qosserver: listen %s: %w", cfg.Addr, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("qosserver: listen %s: %w", cfg.Addr, err)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64 * 1024
	}
	if cfg.CodelTarget <= 0 {
		cfg.CodelTarget = DefaultCodelTarget
	}
	if cfg.CodelInterval <= 0 {
		cfg.CodelInterval = DefaultCodelInterval
	}
	if cfg.AuditInterval <= 0 {
		cfg.AuditInterval = time.Second
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = trace.NewRecorder(trace.Config{})
	}

	s := &Server{
		cfg:            cfg,
		table:          table.NewSharded[*entry](0),
		clock:          clock,
		conn:           conn,
		fifo:           make(chan packet, cfg.QueueSize),
		cdl:            newCodel(cfg.CodelTarget, cfg.CodelInterval),
		registry:       reg,
		tracer:         tracer,
		received:       reg.Counter("janus_qos_received_total", "datagrams pulled off the UDP socket"),
		dropped:        reg.Counter("janus_qos_dropped_total", "datagrams LOST at the intake (clients saw nothing and must retry)", metrics.Label{Key: "reason", Value: "fifo_full"}),
		codelDrops:     reg.Counter("janus_qos_codel_drops_total", "requests answered with the degraded-mode default by the CoDel controller (no credit consumed, never silently lost)"),
		malformed:      reg.Counter("janus_qos_malformed_total", "datagrams that failed to decode"),
		decisions:      reg.Counter("janus_qos_decisions_total", "admission decisions made"),
		allowed:        reg.Counter("janus_qos_decisions_allowed_total", "decisions that admitted the request"),
		denied:         reg.Counter("janus_qos_decisions_denied_total", "decisions that denied the request"),
		dbQueries:      reg.Counter("janus_qos_db_queries_total", "rule fetches that hit the database"),
		defaultHit:     reg.Counter("janus_qos_default_rule_total", "decisions served by the default rule"),
		dbErrors:       reg.Counter("janus_qos_db_errors_total", "database operations that failed"),
		sendErrors:     reg.Counter("janus_qos_send_errors_total", "response datagrams the kernel refused to send"),
		syncQueries:    reg.Counter("janus_qos_sync_queries_total", "change-feed pages rule sync read from the database"),
		syncReconciles: reg.Counter("janus_qos_sync_reconciles_total", "reset scans of the whole rules table by rule sync and preload (no cursor yet, a peer's rules installed, or a cursor the database does not read on from)"),
		quit:           make(chan struct{}),
		logger:         logger,
	}
	reg.GaugeFunc("janus_qos_table_keys", "keys resident in the local QoS table", func() float64 { return float64(s.table.Len()) })
	reg.GaugeFunc("janus_qos_fifo_depth", "datagrams queued between the listener and the workers", func() float64 { return float64(len(s.fifo)) })
	reg.GaugeFunc("janus_qos_codel_state", "1 while the intake FIFO's CoDel controller is in the dropping state (0 = queue healthy)", func() float64 {
		if dropping, _ := s.cdl.snapshot(); dropping {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("janus_qos_codel_target_seconds", "CoDel sojourn target", cfg.CodelTarget.Seconds)
	const sojournHelp = "per-stage request sojourn inside the QoS server in seconds (queue: socket recv to FIFO dequeue; decide: dequeue to all decisions made; send: decisions to response sent; total: recv to sent)"
	s.sojournQueue = reg.HistogramScaled("janus_qos_sojourn_seconds", sojournHelp, 1e-9, metrics.Label{Key: "stage", Value: "queue"})
	s.sojournDecide = reg.HistogramScaled("janus_qos_sojourn_seconds", sojournHelp, 1e-9, metrics.Label{Key: "stage", Value: "decide"})
	s.sojournSend = reg.HistogramScaled("janus_qos_sojourn_seconds", sojournHelp, 1e-9, metrics.Label{Key: "stage", Value: "send"})
	s.sojournTotal = reg.HistogramScaled("janus_qos_sojourn_seconds", sojournHelp, 1e-9, metrics.Label{Key: "stage", Value: "total"})
	reg.GaugeFunc("janus_qos_sojourn_current_seconds", "queue-stage sojourn of the most recently dequeued packet in seconds (the CoDel control signal)",
		func() float64 { return float64(s.curSojournNs.Load()) * 1e-9 })
	if cfg.Audit {
		s.auditOverspend = reg.Counter("janus_qos_audit_overspend_total", "buckets found over the C + r·t conservation budget (counted once per bucket generation)")
		s.audit = audit.NewLedger(audit.Config{Clock: clock, OnOverspend: func(o audit.Overspend) {
			s.auditOverspend.Inc()
			events.Recordf("audit", "overspend", o.Key, o.Over, "admitted=%.1f budget=%.1f gen=%d", o.Admitted, o.Budget, o.Generation)
			s.logger.Printf("qosserver: audit overspend on %q gen %d: admitted %.1f > budget %.1f", o.Key, o.Generation, o.Admitted, o.Budget)
		}})
		reg.GaugeFunc("janus_qos_audit_buckets", "buckets tracked by the admission-audit ledger: one per resident key, so a key moved to another server is audited only on its new owner", func() float64 { return float64(s.table.Len()) })
	}
	if cfg.ReplicationAddr != "" {
		ln, err := net.Listen("tcp", cfg.ReplicationAddr)
		if err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("qosserver: ha listen %s: %w", cfg.ReplicationAddr, err)
		}
		s.ha = tcp.Serve(ln, s.servePeer)
	}
	s.wg.Add(1 + cfg.Workers)
	go s.listen()
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if cfg.SyncInterval > 0 && cfg.Store != nil {
		// The system-maintenance thread: pull the rules edited since the
		// last pass.
		s.loops = append(s.loops, tick.Every(cfg.SyncInterval, s.SyncOnce))
	}
	if cfg.CheckpointInterval > 0 && cfg.Store != nil {
		s.loops = append(s.loops, tick.Every(cfg.CheckpointInterval, s.checkpointOnce))
	}
	if s.audit != nil {
		// Overspends reach the counter and the flight recorder without
		// anyone scraping /debug/audit.
		s.loops = append(s.loops, tick.Every(cfg.AuditInterval, func() { s.AuditReport() }))
	}
	// Readiness baseline: the server booted with whatever rules it has;
	// staleness is measured from here until the first sync pass lands.
	s.lastSyncNs.Store(clock().UnixNano())
	return s, nil
}

// Addr returns the UDP address the server listens on.
func (s *Server) Addr() string { return s.conn.LocalAddr().String() }

// ReplicationAddr returns the HA listener address, or "" if HA is disabled.
func (s *Server) ReplicationAddr() string {
	if s.ha == nil {
		return ""
	}
	return s.ha.Addr().String()
}

// fpUDPRecv models inbound packet loss on the server's UDP socket: a
// dropped datagram is invisible to received/dropped counters, exactly like
// loss on the wire, and is recovered (or not) by the router's retries.
var fpUDPRecv = failpoint.New("qosserver/udp/recv")

// listen is the listener thread: it receives packets from the socket and
// pushes them into the FIFO. A full FIFO still drops the packet — the
// router's retry covers the loss — but with CoDel controlling the queue the
// FIFO should never get near full: the controller sheds by ANSWERING
// (worker-side) long before the queue fills.
//
// One read buffer holds any datagram up to the UDP payload limit (a key may
// be up to wire.MaxKeyLen bytes); each packet is queued as a copy in a
// pooled buffer, which the worker returns once it has decided (it reads the
// key in place from that buffer). The peer is a
// netip.AddrPort value, so in steady state the intake allocates nothing.
//
//janus:deadlined the accept-style read blocks by design: Close() closes the socket, which unblocks ReadFromUDPAddrPort with an error and ends the loop
func (s *Server) listen() {
	defer s.wg.Done()
	buf := make([]byte, wire.MaxDatagram)
	for {
		n, raddr, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed
		}
		// A dual-stack socket reports an IPv4 peer IPv4-mapped; unmapped, its
		// string is "a.b.c.d:port", the failpoint partition key.
		raddr = netip.AddrPortFrom(raddr.Addr().Unmap(), raddr.Port())
		if fpUDPRecv.Armed() {
			switch o := fpUDPRecv.EvalPeer(raddr.String()); o.Kind {
			case failpoint.Drop, failpoint.Partition:
				continue
			case failpoint.Delay:
				o.Sleep()
			}
		}
		s.received.Inc()
		data := packetBufs.Get().(*[]byte)
		*data = append((*data)[:0], buf[:n]...)
		select {
		case s.fifo <- packet{data: data, raddr: raddr, recvNs: s.clock().UnixNano()}:
		default:
			packetBufs.Put(data)
			s.dropped.Inc()
		}
	}
}

// packetBufs holds the buffers queued datagrams travel in from listen to a
// worker.
var packetBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 64)
	return &b
}}

// fpWorkerDecide pins the cost of the full decision path: a Delay action
// models a slow decision service (cold cache, CPU contention, an expensive
// rule) with a deterministic per-datagram stall. The overload scenario
// suite uses it as the service-rate governor — offered load and capacity
// are then both exact, so 1x/2x/10x are real multipliers, not guesses. The
// CoDel degraded path deliberately does NOT pass through this failpoint:
// shedding is cheap, which is what gives the controller leverage.
var fpWorkerDecide = failpoint.New("qosserver/worker/decide")

// worker polls the FIFO, decides, and responds: one request per datagram,
// one response per request (paper §III-C).
//
// Before deciding, the dequeued packet's queue sojourn feeds the CoDel
// controller: a packet the controller sheds is answered immediately
// with the degraded-mode default (StatusDegraded, the server's fail-open/
// fail-closed verdict, no credit consumed) instead of being decided —
// never silently dropped. The degraded path skips the admission decision,
// which is what makes shedding cheaper than serving and lets the control
// law actually shorten the queue.
func (s *Server) worker() {
	defer s.wg.Done()
	// The decoded request and the encode buffer are owned by this worker and
	// reused across packets, and a resident key is found from its bytes in
	// the datagram: the whole decode→decide→encode pass allocates nothing
	// for any resident key (see the AllocPin tests).
	var req wire.Request
	out := make([]byte, 0, 64)
	for {
		var pkt packet
		select {
		case <-s.quit:
			return
		case pkt = <-s.fifo:
		}
		deqNs := s.clock().UnixNano()
		key, err := wire.DecodeRequestKey(*pkt.data, &req)
		if err != nil {
			packetBufs.Put(pkt.data)
			s.malformed.Inc()
			continue
		}
		var resp wire.Response
		if s.cdl.onDequeue(deqNs-pkt.recvNs, deqNs) {
			s.codelDrops.Inc()
			resp = degradedReply(&req, s.cfg.FailOpen)
		} else {
			if fpWorkerDecide.Armed() {
				if o := fpWorkerDecide.Eval(); o.Kind == failpoint.Delay {
					o.Sleep()
				}
			}
			resp = s.decideTimed(&req, key)
		}
		// key aliases the buffer, so it goes back only now: after the lookup
		// and, on a miss, after the key's string was made.
		packetBufs.Put(pkt.data)
		decNs := s.clock().UnixNano()
		out, _ = wire.AppendResponse(out[:0], resp) // a response always encodes
		// Fire and forget (§III-C: "The worker thread does not care about
		// whether the request router receives the response or not") — but a
		// send the kernel refused is counted, or silent drops would read as
		// router-side packet loss.
		//lint:ignore netio fire-and-forget UDP send; WriteToUDPAddrPort does not block on the peer
		if _, err := s.conn.WriteToUDPAddrPort(out, pkt.raddr); err != nil {
			s.sendErrors.Inc()
		}
		s.observeSojourn(pkt.recvNs, deqNs, decNs, s.clock().UnixNano())
	}
}

// degradedReply is the degraded-mode answer to a shed request: StatusDegraded
// and the server's fail-open/fail-closed default verdict. No bucket is
// touched and no credit moves — the chaos invariant
// TestInvariantCodelNeverInflatesAdmission pins that a degraded reply can
// never mint credit.
//
//janus:hotpath
func degradedReply(req *wire.Request, failOpen bool) wire.Response {
	return wire.Response{ID: req.ID, Allow: failOpen, Status: wire.StatusDegraded, TraceID: req.TraceID}
}

// observeSojourn files one packet's per-stage sojourn decomposition and
// refreshes the rolling current-sojourn signal. Allocation-free: four
// histogram records and one atomic store per packet.
//
//janus:hotpath
func (s *Server) observeSojourn(recvNs, deqNs, decNs, sentNs int64) {
	s.sojournQueue.Record(deqNs - recvNs)
	s.sojournDecide.Record(decNs - deqNs)
	s.sojournSend.Record(sentNs - decNs)
	s.sojournTotal.Record(sentNs - recvNs)
	s.curSojournNs.Store(deqNs - recvNs)
}

// SojournTotal returns the end-to-end (recv→sent) sojourn histogram in
// nanoseconds — the per-node tail signal the scenario harness feeds to SLO
// checks and the autoscaler, without registry-name coupling.
func (s *Server) SojournTotal() *metrics.Histogram { return s.sojournTotal }

// decideTimed is the worker's decision step for one request whose key is
// still in its datagram. A sampled request is decided between two clock
// reads, echoes the worker-side processing time and files its span; any
// other pays only the TraceID == 0 comparison (the sojourn's decide stage
// times every request).
//
//janus:hotpath
func (s *Server) decideTimed(req *wire.Request, key []byte) wire.Response {
	if req.TraceID == 0 {
		return s.decideKey(req, key)
	}
	start := s.clock()
	resp := s.decideKey(req, key)
	d := s.clock().Sub(start)
	resp.ServerNanos = int64(d)
	//lint:ignore hotalloc trace-sampled branch; the span allocation is amortized by the sampling rate
	s.recordSpan(req.TraceID, resp.Status, start, d)
	return resp
}

// recordSpan files the qosserver worker span of one traced decision.
func (s *Server) recordSpan(traceID uint64, status wire.Status, start time.Time, d time.Duration) {
	s.tracer.Record(&trace.Trace{ID: trace.HexID(traceID), Spans: []trace.Span{{
		Hop:   "qosserver",
		Note:  "status=" + status.String(),
		Start: start.UnixNano(),
		Dur:   int64(d),
	}}})
}

// Decide makes the admission decision for one request against the local
// table, fetching the rule from the database on first sight of a key.
// The UDP workers make the same decision through decideKey; Decide is
// exported as the socket-free decision path for the isolated QoS-server
// rows of benchmark/, BenchmarkEmbeddedDecision in the repository root, and
// tests.
//
//janus:hotpath
func (s *Server) Decide(req wire.Request) wire.Response {
	now := s.clock()
	e := s.table.Get(req.Key)
	if e == nil {
		//lint:ignore hotalloc first sight of a key installs its rule; every later decision hits the table
		e = s.installRule(req.Key, now)
	}
	return s.decide(e, &req, now)
}

// decideKey is Decide for a key still in its datagram: a resident key is
// found from its bytes, and only a key seen for the first time is copied
// into the string the table keeps.
//
//janus:hotpath
func (s *Server) decideKey(req *wire.Request, key []byte) wire.Response {
	now := s.clock()
	e := s.table.GetBytes(key)
	if e == nil {
		//lint:ignore hotalloc first sight of a key makes its string and installs its rule; every later decision finds it from the bytes
		e = s.installRule(string(key), now)
	}
	return s.decide(e, req, now)
}

// decide is the admission decision, Decide's and decideKey's alike: one
// request against its key's resident entry.
//
//janus:hotpath
func (s *Server) decide(e *entry, req *wire.Request, now time.Time) wire.Response {
	status := wire.StatusOK
	if e.isDefault.Load() {
		status = wire.StatusDefaultRule
		s.defaultHit.Inc()
	}
	cost := req.Cost
	if cost == 0 {
		cost = 1
	}
	allow := e.TryConsume(cost, now)
	if !allow && fpAuditDoubleCredit.Armed() {
		if o := fpAuditDoubleCredit.Eval(); o.Kind != failpoint.Off {
			// The injected conservation bug: an exhausted bucket silently
			// refills to capacity without a ledger grant. Subsequent
			// admissions spend minted credit, which the audit pass MUST
			// report as overspend (see TestAuditCatchesDoubleCredit).
			e.SetCredit(e.Capacity(), now)
		}
	}
	s.decisions.Inc()
	if allow {
		s.allowed.Inc()
		s.audit.Admit(&e.acct, cost)
	} else {
		s.denied.Inc()
	}
	return wire.Response{ID: req.ID, Allow: allow, Status: status, TraceID: req.TraceID}
}

// fpAuditDoubleCredit mints credit on an exhausted bucket without telling
// the audit ledger — the canonical conservation bug (a double-applied
// handoff would look exactly like this). It exists to prove the audit
// ledger detects what it claims to detect; it fires only on the deny path,
// so the admission fast path never sees it.
var fpAuditDoubleCredit = failpoint.New("qosserver/audit/double-credit")

// installRule fetches the rule for key from the database (or applies the
// default) and installs its entry in the local table.
func (s *Server) installRule(key string, now time.Time) *entry {
	e, created := s.table.GetOrCreate(key, func() *entry {
		rule, isDefault, failed := s.fetchRule(key)
		e := s.newEntry(rule, isDefault, now)
		e.fallback.Store(failed)
		return e
	})
	if created && e.fallback.Load() {
		// Set only now that the entry is in the table, so the pass that
		// clears the flag finds the entry.
		s.fetchFailed.Store(true)
	}
	return e
}

// put installs rule for its key: in place when the key is resident, else as
// a new entry, whole before any decision can find it.
func (s *Server) put(rule bucket.Rule, isDefault bool, now time.Time) {
	e, created := s.table.GetOrCreate(rule.Key, func() *entry { return s.newEntry(rule, isDefault, now) })
	if !created {
		s.install(e, rule, isDefault, now)
	}
}

func (s *Server) newEntry(rule bucket.Rule, isDefault bool, now time.Time) *entry {
	e := new(entry)
	s.install(e, rule, isDefault, now)
	return e
}

// install is the single chokepoint for wholesale credit grants —
// first-sight install, sync geometry change, a default key gaining a row,
// handoff install, replication snapshot, preload — so the audit ledger's
// Install hook lives here, ahead of the bucket reset it accounts for.
// (Min-merge paths lower credit via SetCredit and grant nothing.)
func (s *Server) install(e *entry, rule bucket.Rule, isDefault bool, now time.Time) {
	s.audit.Install(&e.acct, min(rule.Credit, rule.Capacity), rule.RefillRate)
	e.Reset(rule, now)
	e.isDefault.Store(isDefault)
}

// fetchRule queries the database; isDefault reports that the default rule
// was applied (unknown key or database failure per FailOpen policy), and
// failed that the database errored.
func (s *Server) fetchRule(key string) (rule bucket.Rule, isDefault, failed bool) {
	if s.cfg.Store == nil {
		return s.defaultRuleFor(key), true, false
	}
	s.dbQueries.Inc()
	r, found, err := s.cfg.Store.Get(key)
	if err != nil {
		s.dbErrors.Inc()
		s.fetchErrLog.Printf(s.logger, "qosserver: rule fetch for %q failed: %v", key, err)
		if s.cfg.FailOpen {
			// Admit generously until the database recovers.
			return bucket.Rule{Key: key, RefillRate: 1e12, Capacity: 1e12, Credit: 1e12}, true, true
		}
		return bucket.DenyAll(key), true, true
	}
	if !found {
		return s.defaultRuleFor(key), true, false
	}
	return r, false, false
}

func (s *Server) defaultRuleFor(key string) bucket.Rule {
	d := s.cfg.DefaultRule
	d.Key = key
	if d.Credit > d.Capacity {
		d.Credit = d.Capacity
	}
	return d
}

// Preload pulls every rule from the database into the local table; used to
// warm a node before admitting traffic. It is the reset scan of a sync pass
// with every rule installed, resident or not, and it leaves the cursor at
// the end of the scan, so the next pass reads on from there.
func (s *Server) Preload() error {
	if s.cfg.Store == nil {
		return nil
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.cursor = minisql.Cursor{}
	return s.sync(s.clock(), true)
}

// SyncOnce performs one rule synchronization pass (§III-C): it reads the
// rules table's change feed after its cursor and applies each change to the
// resident keys. An edited rule whose geometry changed is reinstalled; a
// deleted rule is evicted, so the next request re-resolves it (picking up the
// default rule); a default-rule key that gained a row gets the real rule. A
// pass costs one statement per FeedPage changed rules, however many keys are
// resident; a checkpoint's changed credits count as changed rules. The first
// pass, a pass after a handoff or HA snapshot installed a peer's rules, and a
// pass whose cursor the database will not read on from (minisql's continuity
// rule) read the whole table as a reset scan instead. A pass does nothing
// while the server follows an HA master, whose snapshots keep its table
// current; the first pass after Replicator.Stop scans. A pass that fails to
// read the database leaves SyncAge growing. Concurrent calls run one after
// the other. Exported so tests and orchestration can force a pass
// without waiting for the ticker.
func (s *Server) SyncOnce() {
	if s.cfg.Store == nil {
		return
	}
	if !s.following.Load() {
		s.syncMu.Lock()
		if s.fromPeer.Swap(false) {
			s.cursor = minisql.Cursor{}
		}
		err := s.sync(s.clock(), false)
		s.syncMu.Unlock()
		if err != nil {
			return // SyncAge grows while the database is out of reach
		}
	}
	s.lastSyncNs.Store(s.clock().UnixNano())
}

// sync reads the change feed from the cursor to its end, page by page, and
// applies each page; with install set it also installs the rules of keys
// not resident. A reset page starts a reset scan of the whole table, at the
// end of which every resident key off the default rule that no page listed
// as a rule is evicted. A reset page in the middle of a scan starts it
// again. A failed read keeps the cursor where the last page left it, or, in
// a scan, leaves no cursor, so the next pass scans again. Caller holds
// syncMu.
func (s *Server) sync(now time.Time, install bool) error {
	var held map[string]struct{} // the rules a reset scan has read; nil outside one
	for more := true; more; {
		s.syncQueries.Inc()
		ch, err := s.cfg.Store.ChangedSince(s.cursor)
		if err != nil {
			s.dbErrors.Inc()
			if held != nil {
				s.cursor = minisql.Cursor{}
			}
			return err
		}
		// The database answers again, so the keys that got the error
		// fallback re-fetch their rule on their next request. One that left
		// the default rule meanwhile holds a rule from a sync pass or a peer,
		// and stays. The table is scanned only after a fetch failed.
		if s.fetchFailed.Swap(false) {
			s.evict(func(_ string, e *entry) bool { return e.fallback.Swap(false) && e.isDefault.Load() })
		}
		if ch.Reset {
			s.syncReconciles.Inc()
			held = make(map[string]struct{})
		}
		s.applyChanges(ch, now, install, held)
		s.cursor, more = ch.Next, ch.More
	}
	if held != nil {
		s.evict(func(key string, e *entry) bool {
			_, ok := held[key]
			return !ok && !e.isDefault.Load()
		})
	}
	return nil
}

// evict removes every resident key that gone reports, with its whole entry.
func (s *Server) evict(gone func(key string, e *entry) bool) {
	var keys []string
	s.table.Range(func(key string, e *entry) bool {
		if gone(key, e) {
			keys = append(keys, key)
		}
		return true
	})
	for _, key := range keys {
		s.table.Delete(key)
	}
}

// applyChanges applies one page of the change feed, and adds the keys of its
// rules to held when that is not nil. Keys not resident are skipped unless
// install is set: their first request fetches the current rule anyway, and
// rules installed from a peer instead make the next pass scan. A first-sight
// fetch still in flight is not missed, because it runs under its table
// shard's write lock: the Get here waits for the install and then finds it.
func (s *Server) applyChanges(ch store.Changes, now time.Time, install bool, held map[string]struct{}) {
	for _, key := range ch.Deleted {
		if e := s.table.Get(key); e != nil && !e.isDefault.Load() {
			// Rule deleted: evict; next request applies the default rule.
			s.table.Delete(key)
		}
	}
	for _, r := range ch.Rules {
		// A default key that gained a row (a new purchase), or an edited
		// rule (geometry changed), is installed wholesale with the
		// database's latest values (§III-C), credit included — the user's
		// new purchase takes effect immediately. An unchanged rule (a
		// checkpoint rewrote its credit) is left alone so the database's
		// stale credit does not overwrite live consumption.
		if held != nil {
			held[r.Key] = struct{}{}
		}
		switch e := s.table.Get(r.Key); {
		case e == nil:
			if install {
				s.put(r, false, now)
			}
		case e.isDefault.Load() || r.RefillRate != e.RefillRate() || r.Capacity != e.Capacity():
			s.install(e, r, false, now)
		}
	}
}

// SyncAge reports how long ago the last rule-sync pass succeeded (measured
// from boot before the first one) and whether periodic sync is configured
// at all — the readiness probe's staleness input.
func (s *Server) SyncAge() (age time.Duration, enabled bool) {
	enabled = s.cfg.SyncInterval > 0 && s.cfg.Store != nil
	return time.Duration(s.clock().UnixNano() - s.lastSyncNs.Load()), enabled
}

// AuditReport runs one on-demand audit pass — the /debug/audit document.
// With auditing disabled the verdict is "disabled".
func (s *Server) AuditReport() audit.Report {
	if s.audit == nil {
		return audit.Report{Verdict: "disabled"}
	}
	return s.audit.Audit(s.accounts)
}

// accounts yields the audit account of every resident key.
func (s *Server) accounts(yield func(string, *audit.Account) bool) {
	s.table.Range(func(key string, e *entry) bool { return yield(key, &e.acct) })
}

// checkpointOnce performs one credit write-back pass. It does nothing while
// the server is an HA slave following its master: the master checkpoints
// the credits the slave only replicates.
func (s *Server) checkpointOnce() {
	if s.cfg.Store == nil || s.following.Load() {
		return
	}
	now := s.clock()
	credits := make(map[string]float64)
	s.table.Range(func(key string, e *entry) bool {
		if !e.isDefault.Load() {
			credits[key] = e.Credit(now)
		}
		return true
	})
	if err := s.cfg.Store.CheckpointBatch(credits); err != nil {
		s.dbErrors.Inc()
		s.logger.Printf("qosserver: checkpoint failed: %v", err)
	}
}

// TableLen returns the number of keys resident in the local table.
func (s *Server) TableLen() int { return s.table.Len() }

// Stats returns a snapshot of the operation counters.
func (s *Server) Stats() Stats {
	return Stats{
		Received:   s.received.Value(),
		Dropped:    s.dropped.Value(),
		Degraded:   s.codelDrops.Value(),
		Malformed:  s.malformed.Value(),
		Decisions:  s.decisions.Value(),
		Allowed:    s.allowed.Value(),
		Denied:     s.denied.Value(),
		DBQueries:  s.dbQueries.Value(),
		DefaultHit: s.defaultHit.Value(),
		DBErrors:   s.dbErrors.Value(),
		SendErrors: s.sendErrors.Value(),
	}
}

// Registry returns the metrics registry carrying the server's counters.
func (s *Server) Registry() *metrics.Registry { return s.registry }

// Tracer returns the trace recorder holding the server's worker spans.
func (s *Server) Tracer() *trace.Recorder { return s.tracer }

// IntakeSnapshot is the /debug/qos view of the intake.
type IntakeSnapshot struct {
	Workers      int `json:"workers"`
	FIFODepth    int `json:"fifo_depth"`
	FIFOCapacity int `json:"fifo_capacity"`
	// CodelState is "ok" or "dropping".
	CodelState string `json:"codel_state"`
	// CodelCount is the dropping-episode degrade count (cadence position).
	CodelCount int64 `json:"codel_count,omitempty"`
	// CodelDrops is the total degraded requests shed
	// (janus_qos_codel_drops_total).
	CodelDrops int64 `json:"codel_drops"`
}

// SnapshotIntake captures the live intake state — worker count, FIFO depth,
// CoDel controller state — for /debug/qos.
func (s *Server) SnapshotIntake() IntakeSnapshot {
	snap := IntakeSnapshot{
		Workers:      s.cfg.Workers,
		FIFODepth:    len(s.fifo),
		FIFOCapacity: cap(s.fifo),
		CodelState:   "ok",
		CodelDrops:   s.codelDrops.Value(),
	}
	if dropping, count := s.cdl.snapshot(); dropping {
		snap.CodelState, snap.CodelCount = "dropping", count
	}
	return snap
}

// BucketSnapshot is one row of the /debug/qos bucket-table dump.
type BucketSnapshot struct {
	Key        string  `json:"key"`
	Credit     float64 `json:"credit"`
	Capacity   float64 `json:"capacity"`
	RefillRate float64 `json:"refill_rate"`
	// Default marks keys served by the default rule (absent from the
	// database).
	Default bool `json:"default,omitempty"`
}

// SnapshotBuckets captures up to limit rows of the live bucket table
// (limit <= 0 means all), with credits brought current to the server clock.
// Iteration order is unspecified — this is a debugging view, not an API.
func (s *Server) SnapshotBuckets(limit int) []BucketSnapshot {
	now := s.clock()
	var out []BucketSnapshot
	s.table.Range(func(key string, e *entry) bool {
		out = append(out, BucketSnapshot{
			Key:        key,
			Credit:     e.Credit(now),
			Capacity:   e.Capacity(),
			RefillRate: e.RefillRate(),
			Default:    e.isDefault.Load(),
		})
		return limit <= 0 || len(out) < limit
	})
	return out
}

// Close shuts the server down and waits for all goroutines.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.quit)
		err = s.conn.Close()
		if s.ha != nil {
			err = errors.Join(err, s.ha.Close())
		}
		for _, l := range s.loops {
			l.Stop()
		}
		s.wg.Wait()
	})
	return err
}
