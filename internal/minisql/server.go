package minisql

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
)

// Frame types exchanged on the wire. Every message in either direction is a
// frame; gob provides framing and encoding.
const (
	frameQuery     = 0 // client -> server: SQL + args
	frameResult    = 1 // server -> client: result or error
	frameSubscribe = 2 // standby -> master: begin replication
	frameSnapshot  = 3 // master -> standby: full state
	frameReplEntry = 4 // master -> standby: one journaled write
	framePing      = 5 // health check
	framePong      = 6
)

type frame struct {
	Type    byte
	SQL     string
	Args    []Value
	Result  Result
	Err     string
	Snap    SnapshotData
	Serving bool // pong: whether this node accepts writes (is master)
}

// ErrReadOnly is returned for write statements sent to a standby.
var ErrReadOnly = errors.New("minisql: server is read-only (standby)")

// Server exposes an Engine over TCP and acts as the replication master for
// any subscribed standbys.
type Server struct {
	engine   *Engine
	ln       net.Listener
	readOnly atomic.Bool
	logger   *log.Logger

	mu     sync.Mutex
	subs   map[int]chan replEntry
	nextID int
	conns  map[net.Conn]struct{}
	closed bool
	quit   chan struct{}
	wg     sync.WaitGroup
}

type replEntry struct {
	sql  string
	args []Value
}

// NewServer wraps engine in a TCP server listening on addr (use "127.0.0.1:0"
// for an ephemeral port). The server installs itself as the engine's journal
// hook to feed replication.
func NewServer(engine *Engine, addr string, logger *log.Logger) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("minisql: listen %s: %w", addr, err)
	}
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	s := &Server{
		engine: engine,
		ln:     ln,
		logger: logger,
		subs:   make(map[int]chan replEntry),
		conns:  make(map[net.Conn]struct{}),
		quit:   make(chan struct{}),
	}
	engine.SetJournal(s.fanout)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetReadOnly marks the server as a standby (write statements rejected) or
// master.
func (s *Server) SetReadOnly(ro bool) { s.readOnly.Store(ro) }

// ReadOnly reports whether the server currently rejects writes.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// Engine returns the underlying engine.
func (s *Server) Engine() *Engine { return s.engine }

// Close stops the listener and all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) fanout(sql string, args []Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, ch := range s.subs {
		select {
		case ch <- replEntry{sql, args}:
		default:
			// Slow standby: drop it rather than stall the master. The
			// standby will detect the closed channel and resubscribe with a
			// fresh snapshot.
			s.logger.Printf("minisql: dropping slow replica %d", id)
			close(ch)
			delete(s.subs, id)
		}
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	var encMu sync.Mutex // replication goroutine shares the encoder
	for {
		var f frame
		if err := dec.Decode(&f); err != nil {
			return
		}
		switch f.Type {
		case frameQuery:
			reply := frame{Type: frameResult}
			if s.readOnly.Load() && isWriteSQL(s.engine, f.SQL) {
				reply.Err = ErrReadOnly.Error()
			} else {
				res, err := s.engine.Execute(f.SQL, f.Args...)
				if err != nil {
					reply.Err = err.Error()
				} else {
					reply.Result = res
				}
			}
			encMu.Lock()
			err := enc.Encode(&reply)
			encMu.Unlock()
			if err != nil {
				return
			}
		case framePing:
			encMu.Lock()
			err := enc.Encode(&frame{Type: framePong, Serving: !s.readOnly.Load()})
			encMu.Unlock()
			if err != nil {
				return
			}
		case frameSubscribe:
			// Replication streaming runs in its own goroutine so this loop
			// keeps decoding; a remote disconnect then surfaces as a Decode
			// error here, the connection is torn down, and the streamer's
			// next Encode fails and exits.
			s.wg.Add(1)
			go s.streamReplication(enc, &encMu)
		default:
			return // protocol violation
		}
	}
}

// streamReplication sends a snapshot followed by the live journal stream.
// It exits when the subscriber channel is closed (slow replica), an encode
// fails (connection gone), or the server shuts down.
func (s *Server) streamReplication(enc *gob.Encoder, encMu *sync.Mutex) {
	defer s.wg.Done()
	ch := make(chan replEntry, 4096)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	id := s.nextID
	s.nextID++
	s.subs[id] = ch
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if _, ok := s.subs[id]; ok {
			delete(s.subs, id)
		}
		s.mu.Unlock()
	}()

	// The snapshot is taken after subscription so that any write is either
	// in the snapshot or in the stream (entries already in the snapshot are
	// idempotent REPLACE/UPDATE statements in the Janus workload; duplicate
	// plain INSERTs would error on the standby and are skipped there).
	snap := s.engine.Snapshot()
	encMu.Lock()
	err := enc.Encode(&frame{Type: frameSnapshot, Snap: snap})
	encMu.Unlock()
	if err != nil {
		return
	}
	for {
		select {
		case <-s.quit:
			return
		case entry, ok := <-ch:
			if !ok {
				return // dropped for falling behind
			}
			encMu.Lock()
			err := enc.Encode(&frame{Type: frameReplEntry, SQL: entry.sql, Args: entry.args})
			encMu.Unlock()
			if err != nil {
				return
			}
		}
	}
}

// isWriteSQL reports whether sql is a mutating statement. Unparseable SQL is
// treated as a write so the standby rejects it conservatively.
func isWriteSQL(e *Engine, sql string) bool {
	st, err := e.parseCached(sql)
	return err != nil || !readOnly(st)
}
