// Package errdropbad is a known-bad fixture for the netio analyzer's
// dropped-error rule. It is loaded by tests under the pseudo import path
// "repro/internal/transport". Its writes go through io interfaces, which the
// deadline rule does not watch.
package errdropbad

import (
	"io"
	"net"
	"net/netip"
	"time"
)

// Bad: Close error vanishes.
func dropClose(c net.Conn) {
	c.Close() // want finding: discarded Close error
}

// Bad: deadline failures are silent, so the timeout discipline is fiction.
func dropDeadline(c net.Conn, t time.Time) {
	c.SetDeadline(t) // want finding: discarded SetDeadline error
}

// Bad: short or failed writes vanish.
func dropWrite(w io.Writer, p []byte) {
	w.Write(p) // want finding: discarded Write error
}

// Bad: deferring anything but Close still hides the error.
func deferWrite(w io.Writer, p []byte) {
	defer w.Write(p) // want finding: deferred Write
}

// Good: deferred cleanup close is the idiom.
func deferClose(c net.Conn) {
	defer c.Close()
}

// Good: handled.
func handled(w io.WriteCloser, p []byte) error {
	if _, err := w.Write(p); err != nil {
		return err
	}
	return w.Close()
}

// Good: explicit, auditable discard.
func explicit(c net.Conn) {
	_ = c.Close()
}

// Good: String returns no error; not a watched signature.
type nopWriter struct{}

func (nopWriter) Write(p []byte) int { return len(p) }

func notError(w nopWriter, p []byte) {
	w.Write(p)
}

// Bad: a refused UDP send vanishes. The function is annotated so that only
// the dropped-error rule applies to the send.
//
//janus:deadlined fire-and-forget UDP send
func dropUDPSend(c *net.UDPConn, p []byte, to netip.AddrPort) {
	c.WriteToUDPAddrPort(p, to) // want finding: discarded WriteToUDPAddrPort error
}
