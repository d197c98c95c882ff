package qosserver

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/failpoint"
	"repro/internal/tick"
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
// entry in the local table, and the snapshot replaces the slave's table.
// The membership handoff (handoff.go) speaks the same frames (peercodec.go)
// to the same listener. Each connection carries one exchange. The listener
// is internal/tcp's accept loop with servePeer as its handler, and both
// ends read a frame with tcp.ReadFrame.

const (
	// peerDialTimeout bounds the dial to a peer's replication listener, and
	// peerTimeout the whole exchange after it, on both ends: a peer that
	// accepts and never answers fails the pull or handoff instead of
	// blocking it, and with it Replicator.Stop and Rebalance.
	peerDialTimeout = 2 * time.Second
	peerTimeout     = 2 * time.Second
)

// servePeer answers the one exchange of a connection to the replication
// listener (tcp.Serve): a pull with a snapshot, a handoff with an ack.
func (s *Server) servePeer(conn net.Conn) {
	if err := conn.SetDeadline(time.Now().Add(peerTimeout)); err != nil {
		return
	}
	f, err := readPeerFrame(conn)
	if err != nil {
		return
	}
	reply := peerFrame{Type: peerAck}
	switch f.Type {
	case peerPull:
		reply = peerFrame{Type: peerSnapshot, Entries: s.snapshotTable()}
	case peerHandoff:
		s.applyHandoff(f.Entries)
	default:
		return
	}
	_, _ = conn.Write(appendPeerFrame(nil, &reply)) // the peer sees a failed exchange
}

// exchange sends req to the replication listener at addr and returns the
// reply, which must be of type want.
func exchange(addr string, req *peerFrame, want byte) (peerFrame, error) {
	conn, err := net.DialTimeout("tcp", addr, peerDialTimeout)
	if err != nil {
		return peerFrame{}, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(peerTimeout)); err != nil {
		return peerFrame{}, err
	}
	if _, err := conn.Write(appendPeerFrame(nil, req)); err != nil {
		return peerFrame{}, err
	}
	f, err := readPeerFrame(conn)
	if err == nil && f.Type != want {
		err = fmt.Errorf("%w: type %d, want %d", errPeerFrame, f.Type, want)
	}
	return f, err
}

// snapshotTable captures every entry of the local table with its current
// credit (brought current to now) and default flag.
func (s *Server) snapshotTable() []peerEntry {
	now := s.clock()
	out := make([]peerEntry, 0, s.adm.Len())
	s.adm.Range(func(key string, e *admission.Entry) bool {
		out = append(out, peerEntry{Rule: e.Rule(key, now), Default: e.Default()})
		return true
	})
	return out
}

// applySnapshot makes this (slave) server's table the master's: it
// installs every entry, and every resident key the snapshot lacks leaves
// with its audit account, so a key the master dropped or handed off does
// not linger here.
func (s *Server) applySnapshot(entries []peerEntry) {
	if fpHAApplySnapshot.Armed() {
		switch o := fpHAApplySnapshot.Eval(); o.Kind {
		case failpoint.Drop, failpoint.Error, failpoint.Partition:
			return // snapshot decoded but never installed: the slave goes stale
		case failpoint.Delay:
			o.Sleep()
		}
	}
	now := s.clock()
	held := make(map[string]struct{}, len(entries))
	for _, e := range entries {
		// Same defensive check as applyHandoff: snapshots cross the network
		// too, and an unusable rule must not reach the table.
		if e.Rule.Validate() != nil {
			continue
		}
		s.adm.Put(e.Rule, e.Default, now)
		held[e.Rule.Key] = struct{}{}
	}
	s.adm.Evict(func(key string, _ *admission.Entry) bool {
		_, ok := held[key]
		return !ok
	})
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

	loop *tick.Loop // nil until Start succeeds
}

// NewReplicator creates a replicator that copies the table of the master at
// masterAddr into slave every interval. From here until Stop the slave does
// not checkpoint.
func NewReplicator(slave *Server, masterAddr string, interval time.Duration) *Replicator {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	slave.following.Store(true)
	return &Replicator{slave: slave, master: masterAddr, interval: interval}
}

// Start begins replication. The first pull happens synchronously so the
// slave is warm when Start returns; when it fails, nothing runs in the
// background.
func (r *Replicator) Start() error {
	if err := r.pullOnce(); err != nil {
		return err
	}
	r.loop = tick.Every(r.interval, r.pull)
	return nil
}

// pull is one background pull; Err reports its error.
func (r *Replicator) pull() {
	if err := r.pullOnce(); err != nil {
		r.lastErr.Store(err.Error())
	}
}

// pullOnce performs a single replication pull.
func (r *Replicator) pullOnce() error {
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
	f, err := exchange(r.master, &peerFrame{Type: peerPull}, peerSnapshot)
	if err != nil {
		return err
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
// slave stops pulling and starts serving as the new master, checkpoints
// included).
func (r *Replicator) Stop() {
	r.loop.Stop()
	r.slave.following.Store(false)
}
