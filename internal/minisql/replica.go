package minisql

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// refollow is how long a replica waits between attempts to reach its master
// again after losing the connection.
const refollow = 100 * time.Millisecond

// Replica follows a master server, mirroring the RDS Multi-AZ standby
// (paper §III-D): it reads the master's change feed from its cursor — a
// snapshot first, then every change as the master streams it — applies each
// entry at the master's sequence number, and can be promoted to master on
// failover.
type Replica struct {
	engine *Engine
	ctx    context.Context
	stop   context.CancelFunc
	cursor Cursor // the cut applied last; only the receiving goroutine uses it

	applied atomic.Int64
	lastErr atomic.Value // string
	wg      sync.WaitGroup
}

// NewReplica creates a replica applying into engine. Call Follow to start.
func NewReplica(engine *Engine) *Replica {
	ctx, stop := context.WithCancel(context.Background())
	return &Replica{engine: engine, ctx: ctx, stop: stop}
}

// Applied returns the master sequence number the replica has reached: every
// change the master numbered up to it is applied here.
func (r *Replica) Applied() int64 { return r.applied.Load() }

// Err returns the last replication error while the replica is cut off from
// its master, and nil once it follows again.
func (r *Replica) Err() error {
	if s, ok := r.lastErr.Load().(string); ok && s != "" {
		return errors.New(s)
	}
	return nil
}

// Follow connects to the master at addr, applies its snapshot, then follows
// the stream in a background goroutine until Stop or Promote is called. A
// lost connection is re-established from the replica's cursor. Follow
// returns after the snapshot is applied, so the replica is queryable
// (read-only) when Follow returns.
func (r *Replica) Follow(addr string) error {
	fr, hangUp, err := r.connect(addr, true)
	if err == nil {
		r.wg.Add(1)
		go r.run(addr, fr, hangUp)
	}
	return err
}

// connect dials the master and subscribes from the cursor; with first set it
// also applies the cut the master answers with. Both run under one
// roundTripTimeout, and the stream after them under none: a master sends
// nothing until it is written to, and a re-follow's cursor may be current.
// hangUp closes the connection, and so does Stop.
func (r *Replica) connect(addr string, first bool) (fr *frameReader, hangUp func(), err error) {
	conn, err := (&net.Dialer{Timeout: 5 * time.Second}).DialContext(r.ctx, "tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("minisql: replica dial %s: %w", addr, err)
	}
	// A hang-up discards the Close error: the stream is given up either way.
	stop := context.AfterFunc(r.ctx, func() { _ = conn.Close() })
	hangUp = func() { stop(); _ = conn.Close() }
	fr, w := newFrameReader(conn), frameWriter{w: conn}
	err = conn.SetDeadline(time.Now().Add(roundTripTimeout))
	if err == nil {
		err = w.send(&frame{Type: frameSubscribe, Cursor: r.cursor})
	}
	if err == nil && first {
		err = r.receive(fr)
	}
	if err == nil {
		err = conn.SetDeadline(time.Time{})
	}
	if err != nil {
		hangUp()
		return nil, nil, fmt.Errorf("minisql: follow %s: %w", addr, err)
	}
	return fr, hangUp, nil
}

// receive reads one cut and applies it.
func (r *Replica) receive(fr *frameReader) error {
	var f frame
	if err := fr.next(&f); err != nil {
		return err
	}
	if f.Type != frameSnapshot && f.Type != frameFeed {
		return fmt.Errorf("minisql: unexpected replication frame %d", f.Type)
	}
	if err := r.engine.apply(f.Snap, f.Type == frameSnapshot); err != nil {
		// The engine may hold part of the cut: start again from a snapshot.
		r.cursor = Cursor{}
		return err
	}
	r.cursor = f.Snap.At
	r.applied.Store(f.Snap.At.Seq)
	return nil
}

// run applies the stream, re-following after every failure until stopped.
func (r *Replica) run(addr string, fr *frameReader, hangUp func()) {
	defer r.wg.Done()
	for {
		err := r.receive(fr)
		if err == nil {
			continue
		}
		hangUp()
		for err != nil {
			if r.ctx.Err() != nil {
				return
			}
			r.lastErr.Store(err.Error())
			select {
			case <-r.ctx.Done():
				return
			case <-time.After(refollow):
			}
			fr, hangUp, err = r.connect(addr, false)
		}
		r.lastErr.Store("")
	}
}

// Promote detaches from the master and promotes the replica: the engine
// numbers later writes under an origin of its own, forked from the
// master's at Applied. The caller flips the co-located Server out of
// read-only mode to begin serving writes (the DNS failover in the cluster
// layer then points clients here).
func (r *Replica) Promote() {
	r.Stop()
	r.engine.promote()
	// A connection error observed while the master was dying is expected
	// and moot once this node takes over.
	r.lastErr.Store("")
}

// Stop terminates replication without promoting.
func (r *Replica) Stop() {
	r.stop()
	r.wg.Wait()
}
