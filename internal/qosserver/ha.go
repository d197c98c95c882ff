package qosserver

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bucket"
	"repro/internal/failpoint"
)

// Failpoints on the replication seams. Pull sits on the slave's dial to the
// master (peer = master address), so a partition action severs replication
// without touching the UDP data path; apply-snapshot sits between a decoded
// snapshot and the table, so a drop action freezes the slave at stale state
// while pulls keep "succeeding" — the stale-checkpoint failover scenario.
var (
	fpHAPull          = failpoint.New("qosserver/ha/pull")
	fpHAApplySnapshot = failpoint.New("qosserver/ha/apply-snapshot")
)

// High availability (paper §III-C): "When high-availability is desired, an
// optional slave node can be configured for each QoS server. The slave node
// continuously replicates the local QoS rule table from the master node at
// a configurable interval." On master failure the DNS failover flips the
// server's name to the slave (internal/dns.SetFailover); the slave already
// holds an up-to-date table, so service continues with minimum
// interruption.
//
// Replication is pull-based over TCP: the slave sends a pull frame, the
// master answers with a snapshot of every (rule, credit, default-flag)
// entry in the local table.

// The same wire format carries the membership-handoff protocol: when a
// cluster epoch advances and keys change owner, the old owner pushes the
// affected entries to the new owner as a handoff frame (Server.Rebalance)
// and deletes them locally once the ack arrives, so leaky-bucket credits
// survive rebalancing.

type haFrame struct {
	Type    byte // 0 pull, 1 snapshot, 2 handoff push, 3 handoff ack
	Entries []haEntry
}

type haEntry struct {
	Rule    bucket.Rule
	Default bool
}

const (
	haPull     = 0
	haSnapshot = 1
	haHandoff  = 2
	haAck      = 3
)

// haListener is the master side: it waits for incoming connections from
// slave nodes and serves table snapshots on request.
type haListener struct {
	s  *Server
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

func newHAListener(s *Server, addr string) (*haListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("qosserver: ha listen %s: %w", addr, err)
	}
	h := &haListener{s: s, ln: ln, conns: make(map[net.Conn]struct{})}
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

func (h *haListener) Addr() string { return h.ln.Addr().String() }

func (h *haListener) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return
		}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			_ = conn.Close()
			return
		}
		h.conns[conn] = struct{}{}
		h.mu.Unlock()
		h.wg.Add(1)
		go h.serve(conn)
	}
}

func (h *haListener) serve(conn net.Conn) {
	defer h.wg.Done()
	defer func() {
		h.mu.Lock()
		delete(h.conns, conn)
		h.mu.Unlock()
		_ = conn.Close()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var f haFrame
		if err := dec.Decode(&f); err != nil {
			return
		}
		switch f.Type {
		case haPull:
			if err := enc.Encode(&haFrame{Type: haSnapshot, Entries: h.s.snapshotTable()}); err != nil {
				return
			}
		case haHandoff:
			h.s.applyHandoff(f.Entries)
			if err := enc.Encode(&haFrame{Type: haAck}); err != nil {
				return
			}
		default:
			return
		}
	}
}

func (h *haListener) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	for c := range h.conns {
		_ = c.Close()
	}
	h.mu.Unlock()
	_ = h.ln.Close()
	h.wg.Wait()
}

// snapshotTable captures every entry of the local table with its current
// credit (brought current to now) and default flag.
func (s *Server) snapshotTable() []haEntry {
	now := s.clock()
	var out []haEntry
	s.table.Range(func(key string, b *bucket.Bucket) bool {
		_, isDefault := s.defaults.Load(key)
		out = append(out, haEntry{Rule: b.Rule(key, now), Default: isDefault})
		return true
	})
	return out
}

// applySnapshot installs a replicated table into this (slave) server.
func (s *Server) applySnapshot(entries []haEntry) {
	if fpHAApplySnapshot.Armed() {
		switch o := fpHAApplySnapshot.Eval(); o.Kind {
		case failpoint.Drop, failpoint.Error, failpoint.Partition:
			return // snapshot decoded but never installed: the slave goes stale
		case failpoint.Delay:
			o.Sleep()
		}
	}
	now := s.clock()
	for _, e := range entries {
		// Same defensive check as applyHandoff: snapshots cross the network
		// too, and an unusable rule must not reach the table.
		if e.Rule.Validate() != nil {
			continue
		}
		s.table.Put(e.Rule.Key, s.newBucket(e.Rule, now))
		if e.Default {
			s.defaults.Store(e.Rule.Key, struct{}{})
		} else {
			s.defaults.Delete(e.Rule.Key)
		}
	}
	s.fromPeer.Store(true) // as applyHandoffEntries
}

// Replicator runs on a slave node, pulling the master's table at a fixed
// interval until stopped or promoted.
type Replicator struct {
	slave    *Server
	master   string
	interval time.Duration

	pulls   atomic.Int64
	lastErr atomic.Value // string
	started atomic.Bool

	quit chan struct{}
	done chan struct{}
	once sync.Once
}

// NewReplicator creates a replicator that copies the table of the master at
// masterAddr into slave every interval.
func NewReplicator(slave *Server, masterAddr string, interval time.Duration) *Replicator {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return &Replicator{
		slave:    slave,
		master:   masterAddr,
		interval: interval,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start begins replication. The first pull happens synchronously so the
// slave is warm when Start returns.
func (r *Replicator) Start() error {
	if err := r.PullOnce(); err != nil {
		return err
	}
	r.started.Store(true)
	go r.loop()
	return nil
}

func (r *Replicator) loop() {
	defer close(r.done)
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-r.quit:
			return
		case <-t.C:
			if err := r.PullOnce(); err != nil {
				r.lastErr.Store(err.Error())
			}
		}
	}
}

// PullOnce performs a single replication pull.
func (r *Replicator) PullOnce() error {
	if fpHAPull.Armed() {
		switch o := fpHAPull.EvalPeer(r.master); o.Kind {
		case failpoint.Error, failpoint.Partition:
			return o.Err
		case failpoint.Drop:
			return fmt.Errorf("qosserver: ha pull to %s dropped by failpoint", r.master)
		case failpoint.Delay:
			o.Sleep()
		}
	}
	conn, err := net.DialTimeout("tcp", r.master, 2*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(&haFrame{Type: haPull}); err != nil {
		return err
	}
	var f haFrame
	if err := dec.Decode(&f); err != nil {
		return err
	}
	if f.Type != haSnapshot {
		return errors.New("qosserver: unexpected replication frame")
	}
	r.slave.applySnapshot(f.Entries)
	r.pulls.Add(1)
	return nil
}

// Pulls returns the number of successful pulls.
func (r *Replicator) Pulls() int64 { return r.pulls.Load() }

// Err returns the last pull error, if any.
func (r *Replicator) Err() error {
	if s, ok := r.lastErr.Load().(string); ok && s != "" {
		return errors.New(s)
	}
	return nil
}

// Stop halts replication. Used both for teardown and at promotion (the
// slave stops pulling and starts serving as the new master).
func (r *Replicator) Stop() {
	r.once.Do(func() {
		close(r.quit)
		if r.started.Load() {
			<-r.done
		}
	})
}
