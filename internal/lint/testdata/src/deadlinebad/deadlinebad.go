// Package deadlinebad is a known-bad fixture for the netio analyzer's
// deadline rule. It is loaded under a daemon-package import path by the
// tests; the same file under a non-daemon path must produce no findings.
package deadlinebad

import (
	"bytes"
	"net"
	"time"
)

// Bad: read with no deadline armed anywhere in the function.
func readNaked(c net.Conn, buf []byte) (int, error) {
	return c.Read(buf) // want: runs without a deadline
}

// Good: a deadline is armed before the read.
func readArmed(c net.Conn, buf []byte) (int, error) {
	if err := c.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		return 0, err
	}
	return c.Read(buf)
}

// readAudited is the audited-helper escape: the annotation asserts what
// bounds the call.
//
//janus:deadlined fixture: the caller closes c to unblock the read
func readAudited(c *net.UDPConn, buf []byte) (int, error) {
	return c.Read(buf)
}

// Good: bytes.Buffer is not a net conn; Write is not watched here.
func bufferWrite(b *bytes.Buffer, p []byte) {
	_, _ = b.Write(p)
}

// Bad: the arm comes after the write — textual dominance is violated.
func writeThenArm(c net.Conn, p []byte) error {
	if _, err := c.Write(p); err != nil { // want: runs without a deadline
		return err
	}
	return c.SetWriteDeadline(time.Time{})
}

// Suppressed: the documented fire-and-forget case.
func writeSuppressed(c net.Conn, p []byte) {
	//lint:ignore netio fixture: fire-and-forget UDP send, never blocks
	_, _ = c.Write(p)
}
