package qosserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/bucket"
	"repro/internal/tcp"
	"repro/internal/wire"
)

// The peer frame is the one message format of the replication listener: the
// HA pull and its snapshot, and the membership handoff and its ack. A frame
// is a 4-byte big-endian length, then that many bytes: the type byte, a
// uvarint entry count, and per entry a uvarint key length, the key, the
// refill rate, capacity and credit as 8-byte big-endian IEEE 754 bits, and a
// default byte (0 or 1). A pull and an ack carry no entries.
const (
	peerPull     = 0 // slave -> master: send your table
	peerSnapshot = 1 // master -> slave: every entry, replacing the slave's
	peerHandoff  = 2 // old owner -> new owner: the entries that moved
	peerAck      = 3 // new owner -> old owner: the handoff is applied

	// maxPeerFrame bounds a frame's declared length: room for a snapshot of
	// millions of keys.
	maxPeerFrame = 256 << 20
	// minPeerEntry is the fewest bytes an entry takes: an empty key's
	// length, three floats and the default byte.
	minPeerEntry = 1 + 3*8 + 1
)

type peerFrame struct {
	Type    byte
	Entries []peerEntry
}

type peerEntry struct {
	Rule    bucket.Rule
	Default bool
}

// errPeerFrame reports bytes that are not a well-formed peer frame.
var errPeerFrame = errors.New("qosserver: malformed peer frame")

// appendPeerFrame appends f's encoding, length prefix included, to dst.
func appendPeerFrame(dst []byte, f *peerFrame) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, f.Type)
	dst = binary.AppendUvarint(dst, uint64(len(f.Entries)))
	for _, e := range f.Entries {
		dst = binary.AppendUvarint(dst, uint64(len(e.Rule.Key)))
		dst = append(dst, e.Rule.Key...)
		for _, v := range [...]float64{e.Rule.RefillRate, e.Rule.Capacity, e.Rule.Credit} {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
		}
		if e.Default {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// readPeerFrame reads one frame (tcp.ReadFrame) and decodes it.
func readPeerFrame(r io.Reader) (peerFrame, error) {
	body, err := tcp.ReadFrame(r, nil, maxPeerFrame)
	if errors.Is(err, tcp.ErrLength) {
		return peerFrame{}, fmt.Errorf("%w: %w", errPeerFrame, err)
	}
	if err != nil {
		return peerFrame{}, err
	}
	return decodePeerFrame(body)
}

// decodePeerFrame decodes one frame body (the bytes after the length). It
// accepts exactly what appendPeerFrame produces: a body that decodes
// re-encodes to the same bytes.
func decodePeerFrame(b []byte) (peerFrame, error) {
	bad := func(what string) (peerFrame, error) { return peerFrame{}, fmt.Errorf("%w: %s", errPeerFrame, what) }
	uvarint := func() (uint64, bool) {
		x, n := binary.Uvarint(b)
		if n <= 0 || (n > 1 && b[n-1] == 0) { // truncated, overlong or not minimal
			return 0, false
		}
		b = b[n:]
		return x, true
	}
	if len(b) == 0 || b[0] > peerAck {
		return bad("unknown type")
	}
	f := peerFrame{Type: b[0]}
	b = b[1:]
	n, ok := uvarint()
	if !ok || n > uint64(len(b)/minPeerEntry) {
		return bad("entry count")
	}
	if n > 0 {
		f.Entries = make([]peerEntry, n)
	}
	for i := range f.Entries {
		klen, ok := uvarint()
		if ok && klen > wire.MaxKeyLen {
			return bad("key too long")
		}
		if !ok || klen > uint64(len(b)) {
			return bad("key past the end")
		}
		key := string(b[:klen])
		b = b[klen:]
		if len(b) < 3*8+1 {
			return bad("entry past the end")
		}
		float := func(i int) float64 { return math.Float64frombits(binary.BigEndian.Uint64(b[8*i:])) }
		f.Entries[i].Rule = bucket.Rule{Key: key, RefillRate: float(0), Capacity: float(1), Credit: float(2)}
		switch b[24] {
		case 0:
		case 1:
			f.Entries[i].Default = true
		default:
			return bad("default byte")
		}
		b = b[25:]
	}
	if len(b) > 0 {
		return bad("trailing bytes")
	}
	return f, nil
}
