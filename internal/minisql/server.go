package minisql

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/tcp"
)

// ErrReadOnly is returned for write statements sent to a standby.
var ErrReadOnly = errors.New("minisql: server is read-only (standby)")

// Server exposes an Engine over TCP (tcp.Serve) and acts as the
// replication master for any subscribed standbys: each reads the engine's
// change feed from its own cursor (stream).
type Server struct {
	engine   *Engine
	srv      *tcp.Server
	readOnly atomic.Bool
	logger   *log.Logger
}

// NewServer wraps engine in a TCP server listening on addr (use "127.0.0.1:0"
// for an ephemeral port).
func NewServer(engine *Engine, addr string, logger *log.Logger) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("minisql: listen %s: %w", addr, err)
	}
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	s := &Server{engine: engine, logger: logger}
	s.srv = tcp.Serve(ln, s.serveConn)
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.srv.Addr().String() }

// SetReadOnly marks the server as a standby (write statements rejected) or
// master.
func (s *Server) SetReadOnly(ro bool) { s.readOnly.Store(ro) }

// Close stops the listener and all connections, standbys' streams included.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) serveConn(conn net.Conn) {
	r := newFrameReader(conn)
	w := &frameWriter{w: conn}
	var wMu sync.Mutex // replication goroutine shares the writer
	var streams sync.WaitGroup
	done := make(chan struct{})
	defer func() {
		close(done)
		// Closed before the wait: a stream blocked sending to a silent
		// standby returns only when its write fails.
		_ = conn.Close()
		streams.Wait()
	}()
	// Every frame decodes into f, so the connection reuses one argument list
	// up to keepArgs: the engine copies each value it keeps.
	var f frame
	for {
		if cap(f.Args) > keepArgs {
			f.Args = nil
		}
		if err := r.next(&f); err != nil {
			return // gone, or a malformed frame: this connection only
		}
		reply := frame{Type: frameResult}
		switch f.Type {
		case frameQuery:
			if s.readOnly.Load() && isWriteSQL(s.engine, f.SQL) {
				reply.Err = ErrReadOnly.Error()
			} else if res, err := s.engine.Execute(f.SQL, f.Args...); err != nil {
				reply.Err = err.Error()
			} else {
				reply.Result = res
			}
		case framePing:
			reply = frame{Type: framePong, Serving: !s.readOnly.Load()}
		case frameSubscribe:
			// Replication streaming runs in its own goroutine so this loop
			// keeps reading; a remote disconnect then surfaces as a read
			// error here, which closes done and the connection. The cursor
			// is an argument: a closure capturing f would move every
			// request's frame to the heap.
			streams.Add(1)
			go s.stream(conn, w, &wMu, f.Cursor, done, &streams)
			continue
		default:
			return // protocol violation
		}
		wMu.Lock()
		err := w.send(&reply)
		wMu.Unlock()
		if err != nil {
			return
		}
	}
}

// stream serves one standby from its cursor: a snapshot first when the
// cursor cannot be continued (Engine.since), then each cut of the changes
// after it, one frame per cut, waiting for a write whenever it has caught
// up. A standby that reads slowly gets larger cuts, never a gap. When a send
// fails the connection closes, so the standby sees it and re-follows.
func (s *Server) stream(conn net.Conn, w *frameWriter, wMu *sync.Mutex, cur Cursor, done <-chan struct{}, streams *sync.WaitGroup) {
	defer streams.Done()
	defer conn.Close()
	for {
		snap, reset, wait := s.engine.since(cur)
		if wait != nil {
			select {
			case <-wait:
				continue
			case <-done:
				return
			}
		}
		f := frame{Type: frameFeed, Snap: snap}
		if reset {
			f.Type = frameSnapshot
		}
		wMu.Lock()
		err := w.send(&f)
		wMu.Unlock()
		if err != nil {
			s.logger.Printf("minisql: replication stream: %v", err)
			return
		}
		cur = snap.At
	}
}

// isWriteSQL reports whether sql is a mutating statement. Unparseable SQL is
// treated as a write so the standby rejects it conservatively.
func isWriteSQL(e *Engine, sql string) bool {
	st, err := e.parseCached(sql)
	return err != nil || !readOnly(st)
}
