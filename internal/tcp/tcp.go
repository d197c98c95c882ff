// Package tcp holds what every TCP server of the module shares: the accept
// loop, which tracks each connection and closes it with the server (Serve),
// and the reader of a 4-byte length-prefixed frame (ReadFrame). The HTTP/1.1
// server (internal/h1), the rules database (internal/minisql), the
// memcached stand-in (internal/memcache) and the QoS server's replication
// listener (internal/qosserver) are handlers on Serve.
package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Server accepts connections on a listener and runs a handler on each, in a
// goroutine of its own, until Close.
type Server struct {
	ln     net.Listener
	handle func(net.Conn)

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// Serve serves ln until Close: it calls handle on every connection it
// accepts and closes the connection once handle returns. An Accept error
// other than net.ErrClosed — out of file descriptors, say — is waited out,
// as net/http does, and accepting goes on.
func Serve(ln net.Listener, handle func(net.Conn)) *Server {
	s := &Server{ln: ln, handle: handle, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.accept()
	return s
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) accept() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		nc, err := s.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = nc.Close() // accepted as Close ran
			return
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(nc)
	}
}

func (s *Server) serve(nc net.Conn) {
	defer s.wg.Done()
	s.handle(nc)
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	_ = nc.Close() // the handler is done with it, or Close closed it already
}

// Close stops accepting, closes every connection, so that each handler sees
// its reads and writes fail, and returns once every handler has returned.
// A second call waits the same way and returns nil.
func (s *Server) Close() error {
	s.mu.Lock()
	again := s.closed
	s.closed = true
	for nc := range s.conns {
		_ = nc.Close() // its handler sees the error and returns
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	if again {
		return nil
	}
	return err
}

// ErrLength reports a frame whose length prefix is zero or above the
// reader's bound.
var ErrLength = errors.New("frame length out of range")

// ReadFrame reads one frame off r — a 4-byte big-endian length, then that
// many bytes — and returns its body. A length of zero or above max is
// ErrLength before anything is allocated. The body is read into buf when it
// fits buf's capacity; a larger one grows as its bytes arrive, not to what
// the length claims. buf's first four bytes of capacity hold the length, so
// a buf of capacity four or more saves an allocation.
func ReadFrame(r io.Reader, buf []byte, max uint32) ([]byte, error) {
	head := append(buf[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(head)
	if size == 0 || size > max {
		return nil, fmt.Errorf("%w: %d", ErrLength, size)
	}
	if int(size) <= cap(buf) {
		body := buf[:size]
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	var b bytes.Buffer
	if _, err := io.CopyN(&b, r, int64(size)); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
