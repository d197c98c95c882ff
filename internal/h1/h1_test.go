package h1

import (
	"bufio"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// The exchange as a whole (framings, retry, deadline, pool bounds) is tested
// through its callers, internal/client and internal/lb, against raw TCP
// fakes. The tests here hold the pieces only a caller cannot see.

// readerConn is a connection whose reads come from r; it has no socket.
func readerConn(r io.Reader) *Conn {
	return &Conn{br: bufio.NewReaderSize(r, ReadBuffer)}
}

// TestBytesAfterBodyNotPooled: a reply followed by bytes nobody asked for
// leaves the connection out of step; the answer counts, the connection goes.
func TestBytesAfterBodyNotPooled(t *testing.T) {
	for reply, pooled := range map[string]bool{
		"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\ntrue":                    true,
		"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\ntrueHTTP/1.1 200 OK\r\n": false,
	} {
		nc, peer := net.Pipe()
		cn := readerConn(strings.NewReader(reply))
		cn.nc = nc
		var err error
		if cn.head, err = cn.readHead(nil); err != nil {
			t.Fatal(err)
		}
		if body, err := cn.Body(64); err != nil || string(body) != "true" {
			t.Fatalf("body=%q err=%v", body, err)
		}
		p := NewPool("pipe")
		p.Put(cn, time.Now())
		if got := p.Idle() == 1; got != pooled {
			t.Fatalf("pooled after %q = %v, want %v", reply, got, pooled)
		}
		p.Close()
		peer.Close()
	}
}

// lines is a Sink that records what it is given.
type lines []string

func (l *lines) Status(code int)           { *l = append(*l, "status="+strconv.Itoa(code)) }
func (l *lines) Header(name, value []byte) { *l = append(*l, string(name)+"="+string(value)) }

// TestSinkGetsEndToEndLines: the sink sees the final reply's status, then its
// lines in order, values trimmed, a long line whole, and neither the framing
// and hop-by-hop lines nor an interim reply's.
func TestSinkGetsEndToEndLines(t *testing.T) {
	spans := strings.Repeat("s", 3*ReadBuffer)
	reply := "HTTP/1.1 103 Early Hints\r\nLink: </x>\r\n\r\n" +
		"HTTP/1.1 200 OK\r\nX-Janus-Status:  ok \r\nConnection: keep-alive\r\nKeep-Alive: timeout=5\r\n" +
		"Trailer: X-T\r\nX-Janus-Spans: " + spans + "\r\nTransfer-Encoding: chunked\r\nx-a:\r\n\r\n" +
		"4\r\ntrue\r\n0\r\n\r\n"
	want := []string{"status=200", "X-Janus-Status=ok", "X-Janus-Spans=" + spans, "x-a="}
	for _, r := range []io.Reader{strings.NewReader(reply), iotest.OneByteReader(strings.NewReader(reply))} {
		cn := readerConn(r)
		var got lines
		h, err := cn.readHead(&got)
		if err != nil || !h.interim() {
			t.Fatalf("interim head %+v, err %v", h, err)
		}
		if h, err = cn.readHead(&got); err != nil || h.Status != 200 || !h.chunked {
			t.Fatalf("final head %+v, err %v", h, err)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("sink got %.200q, want %.200q", got, want)
		}
		cn.head = h
		if body, err := cn.Body(64); err != nil || string(body) != "true" {
			t.Fatalf("body=%q err=%v", body, err)
		}
	}
}

// TestLongLineBound: with a sink, a line is assembled up to maxLine bytes
// and refused beyond; without one, any length is skipped. The sink gets the
// status and the long line, not Content-Length.
func TestLongLineBound(t *testing.T) {
	for _, n := range []int{maxLine - len("X-Pad:"), maxLine - len("X-Pad:") + 1} {
		reply := "HTTP/1.1 200 OK\r\nX-Pad:" + strings.Repeat("p", n) + "\r\nContent-Length: 0\r\n\r\n"
		var got lines
		_, err := readerConn(strings.NewReader(reply)).readHead(&got)
		if fits := n+len("X-Pad:") <= maxLine; (err == nil) != fits || fits && len(got) != 2 {
			t.Fatalf("%d-byte line with a sink: err=%v, %d lines relayed", n+len("X-Pad:"), err, len(got))
		}
		if _, err := readerConn(strings.NewReader(reply)).readHead(nil); err != nil {
			t.Fatalf("%d-byte line without a sink: %v", n+len("X-Pad:"), err)
		}
	}
}
