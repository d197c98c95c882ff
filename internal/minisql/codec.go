package minisql

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/tcp"
)

// Frame types exchanged on the wire. Every message in either direction is
// one frame: a 4-byte big-endian length, then that many bytes — the type
// byte and the frame's fields (appendFrame lists them per type).
const (
	frameQuery     = 0 // client -> server: SQL + args
	frameResult    = 1 // server -> client: result or error
	frameSubscribe = 2 // standby -> master: its cursor; begin replication
	frameSnapshot  = 3 // master -> standby: every table, replacing the standby's
	// 4 carried a statement to re-execute on a standby; it stays unused.
	framePing = 5 // health check
	framePong = 6
	frameFeed = 7 // master -> standby: the changes after its cursor
)

// frame is a decoded frame; only the fields of its type are set.
type frame struct {
	Type    byte
	SQL     string
	Args    []Value
	Result  Result
	Err     string
	Cursor  Cursor       // subscribe
	Snap    SnapshotData // snapshot, feed
	Serving bool         // pong: whether this node accepts writes (is master)
}

const (
	// maxFrame bounds a frame's declared length: room for a snapshot of
	// millions of rules.
	maxFrame = 256 << 20
	// keepBuf is the largest read or write buffer a connection keeps
	// between frames; a snapshot or full-table reply allocates its own.
	keepBuf = 64 << 10
	// keepArgs is the longest argument list a connection keeps (40 KB).
	keepArgs = 1 << 10
	// internMax and internLen bound the strings a connection interns: SQL
	// texts, which repeat from one frame to the next.
	internMax = 256
	internLen = 4 << 10
)

// errFrame reports bytes that are not a well-formed frame.
var errFrame = errors.New("minisql: malformed frame")

// appendFrame appends f's encoding to dst. Fields, in order, per type:
//
//	query           SQL text, args (values)
//	result          error text, rows, affected (varint), feed (0, or 1
//	                then next cursor, more and reset bytes)
//	subscribe       cursor
//	snapshot, feed  the cut's cursor, table count, then per table its name,
//	                column count, per column (name, kind byte, primary-key
//	                byte), head and horizon varints, rows
//	pong            serving byte
//	ping            nothing
//
// A cursor is its origin as a uvarint and its seq as a varint. A text is a
// uvarint length and its bytes; a list is a uvarint count and its items;
// rows are a list of value lists. A value is its kind byte, then for INT a
// zig-zag varint, for FLOAT the 8 big-endian IEEE 754 bytes, for TEXT a
// text, and nothing for NULL.
//
// A result carries no column names: a caller knows the columns it asked
// for. Older trees sent a column list between the error text and the rows,
// so their nodes cannot talk to these; janusd and janus-dbd ship from one
// tree, and no frame makes a promise across versions.
func appendFrame(dst []byte, f *frame) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, f.Type)
	switch f.Type {
	case frameQuery:
		dst = appendText(dst, f.SQL)
		dst = appendValues(dst, f.Args)
	case frameResult:
		dst = appendText(dst, f.Err)
		dst = appendRows(dst, f.Result.Rows)
		dst = binary.AppendVarint(dst, f.Result.Affected)
		if fd := f.Result.Feed; fd == nil {
			dst = append(dst, 0)
		} else {
			dst = appendCursor(append(dst, 1), fd.Next)
			dst = append(dst, boolByte(fd.More), boolByte(fd.Reset))
		}
	case frameSubscribe:
		dst = appendCursor(dst, f.Cursor)
	case frameSnapshot, frameFeed:
		dst = appendCursor(dst, f.Snap.At)
		dst = binary.AppendUvarint(dst, uint64(len(f.Snap.Tables)))
		for _, t := range f.Snap.Tables {
			dst = appendText(dst, t.Name)
			dst = binary.AppendUvarint(dst, uint64(len(t.Schema)))
			for _, c := range t.Schema {
				dst = appendText(dst, c.name)
				dst = append(dst, byte(c.kind), boolByte(c.pk))
			}
			dst = binary.AppendVarint(dst, t.Head)
			dst = binary.AppendVarint(dst, t.Horizon)
			dst = appendRows(dst, t.Rows)
		}
	case framePong:
		dst = append(dst, boolByte(f.Serving))
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

func appendCursor(dst []byte, c Cursor) []byte {
	dst = binary.AppendUvarint(dst, c.Origin)
	return binary.AppendVarint(dst, c.Seq)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendText(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendValues(dst []byte, vs []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = append(dst, byte(v.Kind))
		switch v.Kind {
		case KindInt:
			dst = binary.AppendVarint(dst, v.I)
		case KindFloat:
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.F))
		case KindText:
			dst = appendText(dst, v.S)
		}
	}
	return dst
}

func appendRows(dst []byte, rows [][]Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, r := range rows {
		dst = appendValues(dst, r)
	}
	return dst
}

// decodeFrame decodes one frame body (the bytes after the length) into f.
// It accepts exactly what appendFrame produces: a body that decodes
// re-encodes to the same bytes. Strings are copied out of body; intern, if
// not nil, shares the copies of SQL texts between frames. A query's
// arguments go into the storage of f.Args, which a frame of any other type
// keeps, empty: a connection that decodes every frame into one f reuses one
// argument list.
func decodeFrame(body []byte, f *frame, intern map[string]string) error {
	d := decoder{b: body, intern: intern}
	*f = frame{Type: d.u8(), Args: f.Args[:0]}
	switch f.Type {
	case frameQuery:
		f.SQL = d.internText()
		f.Args = d.values(f.Args)
	case frameResult:
		f.Err = d.text()
		f.Result.Rows = d.rows()
		f.Result.Affected = d.varint()
		if d.flag() {
			f.Result.Feed = &Feed{Next: d.cursor(), More: d.flag(), Reset: d.flag()}
		}
	case frameSubscribe:
		f.Cursor = d.cursor()
	case frameSnapshot, frameFeed:
		f.Snap.At = d.cursor()
		if n := d.count(); n > 0 {
			f.Snap.Tables = make([]TableSnapshot, n)
			for i := range f.Snap.Tables {
				t := &f.Snap.Tables[i]
				t.Name = d.text()
				if n := d.count(); n > 0 {
					t.Schema = make([]columnDef, n)
					for j := range t.Schema {
						t.Schema[j] = columnDef{name: d.text(), kind: d.kind(), pk: d.flag()}
					}
				}
				t.Head, t.Horizon = d.varint(), d.varint()
				t.Rows = d.rows()
			}
		}
	case framePong:
		f.Serving = d.flag()
	case framePing:
	default:
		d.fail()
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail() // trailing bytes
	}
	return d.err
}

// decoder reads fields off the front of b. The first error sticks: every
// later read returns a zero value, so callers check d.err once at the end.
type decoder struct {
	b      []byte
	err    error
	intern map[string]string
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errFrame
	}
	d.b = nil
}

func (d *decoder) u8() byte {
	if len(d.b) == 0 {
		d.fail()
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) flag() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail()
	return false
}

func (d *decoder) kind() Kind {
	k := Kind(d.u8())
	if k > KindText {
		d.fail()
		return KindNull
	}
	return k
}

// uvarint reads a minimally encoded uvarint: a longer encoding of the same
// number ends in a zero byte.
func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) cursor() Cursor { return Cursor{Origin: d.uvarint(), Seq: d.varint()} }

// count reads a list length and checks it against the bytes left: every
// item takes at least one byte, so a list never allocates more items than
// the frame has bytes.
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *decoder) raw() []byte {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

func (d *decoder) text() string { return string(d.raw()) }

func (d *decoder) internText() string {
	b := d.raw()
	if d.intern == nil || len(b) > internLen {
		return string(b)
	}
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.intern) < internMax {
		d.intern[s] = s
	}
	return s
}

// values reads a list of values into dst's storage, grown as it needs.
func (d *decoder) values(dst []Value) []Value {
	n := d.count()
	if n == 0 {
		return dst[:0]
	}
	vs := slices.Grow(dst[:0], n)[:n]
	// Every slot is written, a NULL too: dst holds the last frame's values.
	for i := range vs {
		switch k := d.kind(); k {
		case KindNull:
			vs[i] = null()
		case KindInt:
			vs[i] = Int(d.varint())
		case KindFloat:
			if len(d.b) < 8 {
				d.fail()
				return nil
			}
			vs[i] = Float(math.Float64frombits(binary.BigEndian.Uint64(d.b)))
			d.b = d.b[8:]
		case KindText:
			vs[i] = Text(d.text())
		}
	}
	return vs
}

func (d *decoder) rows() [][]Value {
	n := d.count()
	if n == 0 {
		return nil
	}
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = d.values(nil)
	}
	return rows
}

// frameReader reads frames off one connection through a buffered reader
// and one reused buffer.
type frameReader struct {
	br     *bufio.Reader
	buf    []byte
	intern map[string]string
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReader(r), buf: make([]byte, 0, 512), intern: make(map[string]string)}
}

// next reads and decodes one frame (tcp.ReadFrame). A buffer grown for a
// large frame is kept up to keepBuf.
func (r *frameReader) next(f *frame) error {
	body, err := tcp.ReadFrame(r.br, r.buf, maxFrame)
	if errors.Is(err, tcp.ErrLength) {
		return fmt.Errorf("%w: %w", errFrame, err)
	}
	if err != nil {
		return err
	}
	if cap(body) <= keepBuf {
		r.buf = body[:0]
	}
	return decodeFrame(body, f, r.intern)
}

// frameWriter sends frames on one connection, each encoded into one reused
// buffer and handed to the connection in one Write.
type frameWriter struct {
	w   io.Writer
	buf []byte
}

func (w *frameWriter) send(f *frame) error {
	buf := appendFrame(w.buf[:0], f)
	if cap(buf) <= keepBuf {
		w.buf = buf
	}
	if n := len(buf) - 4; n > maxFrame {
		return fmt.Errorf("minisql: frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	_, err := w.w.Write(buf)
	return err
}
