package minisql

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Replica follows a master server, mirroring the RDS Multi-AZ standby
// (paper §III-D): it seeds itself from a snapshot, applies the journaled
// write stream, and can be promoted to master on failover.
type Replica struct {
	engine *Engine

	mu       sync.Mutex
	conn     net.Conn
	stopped  bool
	promoted atomic.Bool
	applied  atomic.Int64
	lastErr  atomic.Value // string
	wg       sync.WaitGroup
}

// NewReplica creates a replica applying into engine. Call Follow to start.
func NewReplica(engine *Engine) *Replica { return &Replica{engine: engine} }

// Applied returns the number of replication entries applied so far.
func (r *Replica) Applied() int64 { return r.applied.Load() }

// Err returns the last replication error, if any.
func (r *Replica) Err() error {
	if s, ok := r.lastErr.Load().(string); ok && s != "" {
		return errors.New(s)
	}
	return nil
}

// Follow connects to the master at addr, restores the snapshot, then applies
// the live stream in a background goroutine until Stop or Promote is called
// or the connection fails. Follow returns after the snapshot is applied, so
// the replica is queryable (read-only) when Follow returns.
func (r *Replica) Follow(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("minisql: replica dial %s: %w", addr, err)
	}
	w := frameWriter{w: conn}
	if err := w.send(&frame{Type: frameSubscribe}); err != nil {
		conn.Close()
		return fmt.Errorf("minisql: subscribe: %w", err)
	}
	fr := newFrameReader(conn)
	var f frame
	if err := fr.next(&f); err != nil {
		conn.Close()
		return fmt.Errorf("minisql: snapshot recv: %w", err)
	}
	if f.Type != frameSnapshot {
		conn.Close()
		return fmt.Errorf("minisql: expected snapshot, got frame type %d", f.Type)
	}
	if err := r.engine.Restore(f.Snap); err != nil {
		conn.Close()
		return err
	}
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		conn.Close()
		return errors.New("minisql: replica stopped")
	}
	r.conn = conn
	r.mu.Unlock()
	r.wg.Add(1)
	go r.applyLoop(fr)
	return nil
}

func (r *Replica) applyLoop(fr *frameReader) {
	defer r.wg.Done()
	for {
		var f frame
		if err := fr.next(&f); err != nil {
			if !r.promoted.Load() {
				r.lastErr.Store(err.Error())
			}
			return
		}
		if f.Type != frameReplEntry {
			r.lastErr.Store(fmt.Sprintf("minisql: unexpected replication frame %d", f.Type))
			return
		}
		if _, err := r.engine.Execute(f.SQL, f.Args...); err != nil {
			// A plain INSERT already present via the snapshot overlap window
			// fails with a duplicate-key error; it is safe to skip because
			// the row content is identical.
			if !strings.Contains(err.Error(), "duplicate primary key") {
				r.lastErr.Store(err.Error())
				return
			}
		}
		r.applied.Add(1)
	}
}

// Promote detaches from the master and marks the replica as promoted. The
// caller flips the co-located Server out of read-only mode to begin serving
// writes (the DNS failover in the cluster layer then points clients here).
func (r *Replica) Promote() {
	r.promoted.Store(true)
	r.Stop()
	// A connection error observed while the master was dying is expected
	// and moot once this node takes over.
	r.lastErr.Store("")
}

// Promoted reports whether Promote has been called.
func (r *Replica) Promoted() bool { return r.promoted.Load() }

// Stop terminates replication without promoting.
func (r *Replica) Stop() {
	r.mu.Lock()
	r.stopped = true
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	r.mu.Unlock()
	r.wg.Wait()
}
