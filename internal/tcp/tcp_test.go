package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// failOnceListener fails its first Accept with an error other than
// net.ErrClosed, as a listener out of file descriptors does.
type failOnceListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *failOnceListener) Accept() (net.Conn, error) {
	if !l.failed.Swap(true) {
		return nil, errors.New("accept: too many open files")
	}
	return l.Listener.Accept()
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func dial(t *testing.T, s *Server) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return nc
}

// TestServeAcceptsAfterAcceptError: an Accept error that is not
// net.ErrClosed does not end the loop; a connection made after it is served,
// and closed once its handler returns.
func TestServeAcceptsAfterAcceptError(t *testing.T) {
	ln := &failOnceListener{Listener: listen(t)}
	s := Serve(ln, func(nc net.Conn) { _, _ = io.WriteString(nc, "served") })
	defer s.Close()
	got, err := io.ReadAll(dial(t, s))
	if err != nil || string(got) != "served" {
		t.Fatalf("read %q, %v; want \"served\" and the connection closed", got, err)
	}
	if !ln.failed.Load() {
		t.Fatal("the failing Accept was never called")
	}
}

// TestCloseEndsHandlers: Close closes a connection whose handler is blocked
// reading it, returns only after the handler has, and does nothing more a
// second time.
func TestCloseEndsHandlers(t *testing.T) {
	started := make(chan struct{})
	var returned atomic.Bool
	s := Serve(listen(t), func(nc net.Conn) {
		close(started)
		_, _ = nc.Read(make([]byte, 1))
		returned.Store(true)
	})
	nc := dial(t, s)
	<-started
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !returned.Load() {
		t.Fatal("Close returned before the handler")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after Close: %v, want EOF", err)
	}
}

// FuzzReadFrame: for any input and any buffer capacity, ReadFrame returns an
// error or a body of exactly the declared length, within the bound, holding
// the bytes after the length.
func FuzzReadFrame(f *testing.F) {
	const max = 64
	f.Add([]byte("\x00\x00\x00\x03abc"), uint8(8))
	f.Add([]byte("\x00\x00\x00\x03abc"), uint8(0))
	f.Add([]byte("\x00\x00\x00\x00"), uint8(8))
	f.Add([]byte("\x00\x00\x00\x41"), uint8(8))
	f.Add([]byte("\x7f\xff\xff\xff\x00"), uint8(8))
	f.Add([]byte("\x00\x00\x00\x05ab"), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, bufCap uint8) {
		body, err := ReadFrame(bytes.NewReader(data), make([]byte, 0, bufCap), max)
		if err != nil {
			if len(data) >= 4 {
				size := binary.BigEndian.Uint32(data)
				if (size == 0 || size > max) != errors.Is(err, ErrLength) {
					t.Fatalf("length %d: err = %v", size, err)
				}
			}
			return
		}
		size := binary.BigEndian.Uint32(data)
		if size == 0 || size > max || uint32(len(body)) != size {
			t.Fatalf("declared %d (max %d), read %d bytes", size, max, len(body))
		}
		if !bytes.Equal(body, data[4:4+size]) {
			t.Fatalf("body %x, want %x", body, data[4:4+size])
		}
	})
}
