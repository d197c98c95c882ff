package h1

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httputil"
)

var (
	errMalformed = errors.New("malformed HTTP reply")
	errOversized = errors.New("reply body too long")
	errInterim   = errors.New("too many 1xx replies")
)

// Head is what the reader keeps of a reply's status line and header lines.
type Head struct {
	Status  int
	length  int  // Content-Length; -1 when the header is absent
	chunked bool // Transfer-Encoding: chunked
	close   bool // HTTP/1.0 or Connection: close: the server will not reuse the connection
}

// interim reports a 1xx reply that another reply follows. 101 is final, as
// in net/http: after it the connection no longer speaks HTTP.
func (h Head) interim() bool {
	return h.Status/100 == 1 && h.Status != http.StatusSwitchingProtocols
}

// Delimited reports whether the body's end can be told without the server
// closing the connection.
func (h Head) Delimited() bool { return h.chunked || h.length >= 0 }

// readHead reads one status line and its header lines up to the blank line,
// handing a final reply's status and end-to-end lines to sink when it is not
// nil.
// It is deliberately narrower than net/http's parser — one space after the
// version, a status of at least 100, no folded lines, no space in a field
// name, each length header at most once and never both — so that every head
// it accepts means the same thing to any HTTP/1.1 implementation.
//
//janus:hotpath
func (cn *Conn) readHead(sink Sink) (Head, error) {
	br := cn.br
	h := Head{length: -1}
	line, err := br.ReadSlice('\n')
	if err != nil {
		return h, headErr(err)
	}
	// "HTTP/1.x SSS" and, optionally, a space and a reason phrase.
	line = trimEOL(line)
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || line[8] != ' ' || (len(line) > 12 && line[12] != ' ') {
		return h, errMalformed
	}
	http10 := line[7] == '0'
	if !http10 && line[7] != '1' {
		return h, errMalformed
	}
	h.close = http10
	var ok bool
	if h.Status, ok = parseDigits(line[9:12]); !ok || h.Status < 100 {
		return h, errMalformed
	}
	if h.interim() {
		sink = nil // only the final reply is relayed
	} else if sink != nil {
		sink.Status(h.Status)
	}
	for {
		line, err := br.ReadSlice('\n')
		whole := err == nil
		if !whole && err != bufio.ErrBufferFull {
			return h, headErr(err)
		}
		if whole {
			if line = trimEOL(line); len(line) == 0 {
				break
			}
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || !isToken(line[:colon]) {
			return h, errMalformed
		}
		name, value := line[:colon], line[colon+1:]
		if !whole {
			// A line longer than the buffer (a trace span list, say) is read
			// piece by piece; a framing header that long is not one.
			if foldEq(name, "content-length") || foldEq(name, "transfer-encoding") || foldEq(name, "connection") {
				return h, errMalformed
			}
			if sink == nil {
				if _, err := restOfLine(br, value, nil, false); err != nil {
					return h, err
				}
				continue
			}
			// The line is assembled in a buffer kept with the connection.
			if cn.line, err = restOfLine(br, value, append(cn.line[:0], line[:colon+1]...), true); err != nil {
				return h, err
			}
			name, value = cn.line[:colon], cn.line[colon+1:]
		} else if !isFieldValue(value) {
			return h, errMalformed
		}
		value = trimOWS(value)
		switch {
		case foldEq(name, "content-length"):
			if h.length >= 0 {
				return h, errMalformed
			}
			if h.length, ok = parseDigits(value); !ok {
				return h, errMalformed
			}
			continue
		case foldEq(name, "transfer-encoding"):
			if h.chunked || !foldEq(value, "chunked") {
				return h, errMalformed
			}
			h.chunked = true
			continue
		case foldEq(name, "connection"):
			h.close = h.close || hasToken(value, "close")
			continue
		case foldEq(name, "keep-alive"), foldEq(name, "trailer"):
			continue
		}
		if sink != nil {
			sink.Header(name, value)
		}
	}
	if h.chunked && (h.length >= 0 || http10) {
		return h, errMalformed
	}
	if h.Status == http.StatusNoContent || h.Status == http.StatusNotModified {
		h.length, h.chunked = 0, false // these never carry a body
	}
	return h, nil
}

// headErr names the two ways a head ends early.
//
//janus:hotpath
func headErr(err error) error {
	switch err {
	case io.EOF:
		return io.ErrUnexpectedEOF
	case bufio.ErrBufferFull:
		return errMalformed
	}
	return err
}

// restOfLine checks the rest of a header line whose first piece, frag,
// filled the buffer without reaching the line's end. With keep, it appends
// the pieces to line, without the line end, and returns it; a line longer
// than maxLine is refused.
//
//janus:hotpath
func restOfLine(br *bufio.Reader, frag, line []byte, keep bool) ([]byte, error) {
	for {
		// A CR that ends a piece may be half of the line's CRLF; anywhere
		// else in a field value it is an error.
		cr := len(frag) > 0 && frag[len(frag)-1] == '\r'
		if cr {
			frag = frag[:len(frag)-1]
		}
		if !isFieldValue(frag) {
			return line, errMalformed
		}
		if keep {
			if len(line)+len(frag) > maxLine {
				return line, errMalformed
			}
			line = append(line, frag...)
		}
		next, err := br.ReadSlice('\n')
		if err != nil && err != bufio.ErrBufferFull {
			return line, headErr(err)
		}
		switch {
		case cr && (err != nil || len(next) != 1):
			return line, errMalformed
		case cr:
			return line, nil
		case err == nil:
			next = trimEOL(next)
			if !isFieldValue(next) || keep && len(line)+len(next) > maxLine {
				return line, errMalformed
			}
			if keep {
				line = append(line, next...)
			}
			return line, nil
		}
		frag = next
	}
}

// Body reads the body of the reply Send returned, at most limit bytes of
// it. The slice it returns is valid until the next read from the
// connection. limit may not exceed ReadBuffer.
func (cn *Conn) Body(limit int) ([]byte, error) {
	body, err := readBody(cn.br, cn.head, limit)
	cn.done = err == nil
	return body, err
}

func readBody(br *bufio.Reader, h Head, limit int) ([]byte, error) {
	var r io.Reader = br // close-delimited: the body is all that follows
	switch {
	case h.chunked:
		r = httputil.NewChunkedReader(br)
	case h.length >= 0:
		if h.length > limit {
			return nil, errOversized
		}
		body, err := br.Peek(h.length)
		if err != nil {
			return nil, headErr(err)
		}
		_, err = br.Discard(h.length)
		return body, err
	}
	// The two framings no Janus tier chooses; this path may allocate.
	buf := make([]byte, limit+1)
	n, err := io.ReadFull(r, buf)
	switch err {
	case nil:
		return nil, errOversized
	case io.EOF, io.ErrUnexpectedEOF:
	default:
		return nil, err
	}
	if h.chunked {
		// The chunked reader stops after the last chunk. What must follow is
		// the empty line that ends an empty trailer section.
		if end, err := br.Peek(2); err != nil {
			return nil, headErr(err)
		} else if string(end) != "\r\n" {
			return nil, errMalformed
		}
		if _, err := br.Discard(2); err != nil {
			return nil, err
		}
	}
	return buf[:n], nil
}

// trimEOL strips the LF that ended line and the CR before it, if any.
//
//janus:hotpath
func trimEOL(line []byte) []byte {
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// trimOWS strips optional white space (SP, HTAB) from both ends of a field
// value.
//
//janus:hotpath
func trimOWS(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// parseDigits reads b as a decimal number of one or more digits, saturating
// far above any length this reader accepts.
//
//janus:hotpath
func parseDigits(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n < 1<<30 {
			n = n*10 + int(c-'0')
		}
	}
	return n, true
}

// tokenByte marks the bytes RFC 9110 allows in a field name.
var tokenByte = func() (t [256]bool) {
	for _, c := range []byte("!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ") {
		t[c] = true
	}
	return t
}()

//janus:hotpath
func isToken(b []byte) bool {
	for _, c := range b {
		if !tokenByte[c] {
			return false
		}
	}
	return true
}

// isFieldValue reports whether b holds no control byte other than HTAB —
// what net/textproto demands of a field value.
//
//janus:hotpath
func isFieldValue(b []byte) bool {
	for _, c := range b {
		if c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

// foldEq reports whether b equals lower, an all-lower-case ASCII string,
// ignoring ASCII case.
//
//janus:hotpath
func foldEq(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c |= 0x20
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// hasToken reports whether the comma-separated list v holds the token lower.
//
//janus:hotpath
func hasToken(v []byte, lower string) bool {
	for len(v) > 0 {
		tok := v
		if i := bytes.IndexByte(v, ','); i >= 0 {
			tok, v = v[:i], v[i+1:]
		} else {
			v = nil
		}
		if foldEq(trimOWS(tok), lower) {
			return true
		}
	}
	return false
}
