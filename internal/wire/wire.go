// Package wire defines the key-value request/response protocol spoken
// between Janus layers (paper §I: "Janus also adopts a key-value
// request-response mechanism for easy integration with the actual
// application").
//
// Two encodings are defined:
//
//   - A compact binary datagram format used on the UDP path between the
//     request router and the QoS server. Requests are idempotent and carry a
//     request ID so retransmitted retries (paper §III-B) can be matched to
//     any response.
//   - An HTTP mapping used between QoS clients and the request router
//     (GET /qos?key=K → body "true" or "false").
//
// Binary layout (big endian):
//
//	offset size  field
//	0      1     magic 'J'
//	1      1     version (1)
//	2      1     type (0 request, 1 response)
//	3      1     flags
//	4      8     request id
//	12     4     CRC32-IEEE of everything after this field
//	-- request --
//	16     4     cost (credits, fixed-point 1/1000)
//	20     2     key length n
//	22     n     key bytes
//	22+n   8     trace id (only when flags & FlagTraced)
//	-- response --
//	16     1     verdict (0 deny, 1 allow)
//	17     1     status
//	18     8     trace id (only when flags & FlagTraced)
//	26     4     server-side processing nanoseconds (only when traced)
//
// The cost field supports weighted admission (one API call may consume more
// than one credit); the paper's default is cost 1.
//
// The trace fields are the protocol's first optional extension and set the
// evolution pattern: new fields are appended after the existing payload and
// gated by a flag bit, so decoders that predate the field skip it (the key
// length / fixed response length bound what they read, and the CRC covers
// the full datagram on both sides). See DESIGN.md §5. Every datagram
// carries exactly one request or one response (DESIGN.md §3.3); decoders
// ignore flag bits they do not know and any bytes after the sections their
// known bits gate. A response's appended sections get at most 64 bytes in
// all (MaxResponseDatagram): the router reads replies into a buffer of that
// size.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Protocol constants.
const (
	Magic   = 'J'
	Version = 1

	typeRequest  = 0
	typeResponse = 1

	requestHeaderLen  = 22
	responseLen       = 18
	responseTracedLen = responseLen + 12 // + trace id + server nanos
	traceIDLen        = 8
	costScale         = 1000
	MaxKeyLen         = math.MaxUint16
	MaxDatagram       = 64 * 1024
	checksummedOffset = 16 // bytes [16:] are covered by the CRC

	// MaxResponseDatagram is the longest response a reader must take in:
	// the longest frame this version writes, plus 64 bytes for the sections
	// a newer server appends. Those sections must fit in the 64 bytes; a
	// longer datagram reaches a reader truncated, fails its CRC and is
	// dropped (DESIGN.md §5).
	MaxResponseDatagram = responseTracedLen + 64
)

// FlagTraced marks a datagram carrying the optional trailing trace fields
// (request: 8-byte trace ID after the key; response: 8-byte trace ID plus
// 4-byte server-processing nanoseconds after the status byte).
const FlagTraced = 1 << 0

// Flag bit 1<<1 is retired (it marked the batch frame), and so is bit 1<<2
// (it marked a trailing credit-lease section); neither may be reused.
// Decoders ignore both, and never read the bytes an old sender appended
// under them.

// Status codes carried in responses.
type Status uint8

// Response statuses.
const (
	// StatusOK means the decision came from the key's leaky bucket.
	StatusOK Status = 0
	// StatusDefaultRule means the key was absent from the database and the
	// server applied the configured default rule (paper §II-D).
	StatusDefaultRule Status = 1
	// StatusDefaultReply means the router exhausted its retries and
	// fabricated the response itself (paper §III-B: "the request router
	// returns a default reply to the QoS client").
	StatusDefaultReply Status = 2
	// StatusError means the server failed internally; verdict carries the
	// fail-open/fail-closed default.
	StatusError Status = 3
	// Status 4 is retired (a router admitted the key from a credit lease);
	// do not reuse it.

	// StatusDegraded means the QoS server's CoDel queue controller answered
	// the request with the degraded-mode default instead of running the
	// admission decision: the request sat in the intake FIFO beyond the
	// sojourn target and was shed to keep the queue short (DESIGN.md §3.4).
	// The verdict carries the server's fail-open/fail-closed default and
	// consumed no credit.
	StatusDegraded Status = 5
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusDefaultRule:
		return "default-rule"
	case StatusDefaultReply:
		return "default-reply"
	case StatusError:
		return "error"
	case StatusDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Request is a QoS admission query for one key.
type Request struct {
	// ID correlates retransmissions with responses.
	ID uint64
	// Key is the QoS key.
	Key string
	// Cost is the number of credits this call consumes (default 1).
	Cost float64
	// TraceID, when non-zero, marks the request as sampled for tracing and
	// rides the wire as an optional trailing field (internal/trace).
	TraceID uint64
}

// Response is the boolean admission decision.
type Response struct {
	// ID echoes the request ID.
	ID uint64
	// Allow is TRUE to admit, FALSE to deny (the paper's QoS response).
	Allow bool
	// Status qualifies how the decision was produced.
	Status Status
	// TraceID echoes the request's trace ID for sampled requests.
	TraceID uint64
	// ServerNanos is the QoS server's worker-side processing time in
	// nanoseconds, reported only on traced responses (capped at ~4.29 s by
	// the 4-byte wire field).
	ServerNanos int64
}

// Decode errors.
var (
	ErrTruncated   = errors.New("wire: truncated packet")
	ErrBadMagic    = errors.New("wire: bad magic byte")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadType     = errors.New("wire: unexpected packet type")
	ErrBadChecksum = errors.New("wire: checksum mismatch")
	ErrKeyTooLong  = errors.New("wire: key exceeds 65535 bytes")
)

//janus:hotpath
func putHeader(buf []byte, typ, flags byte, id uint64) {
	buf[0] = Magic
	buf[1] = Version
	buf[2] = typ
	buf[3] = flags
	binary.BigEndian.PutUint64(buf[4:], id)
}

// growTo extends dst so its length is start+need, reusing capacity.
//
//janus:hotpath
func growTo(dst []byte, start, need int) []byte {
	for cap(dst)-start < need {
		dst = append(dst[:cap(dst)], 0)
	}
	return dst[:start+need]
}

// scaleCost converts a credit cost to the 1/1000 fixed-point wire value,
// clamping to non-negative and the 4-byte field.
//
//janus:hotpath
func scaleCost(cost float64) uint32 {
	if cost < 0 {
		cost = 0
	}
	scaled := uint64(math.Round(cost * costScale))
	if scaled > math.MaxUint32 {
		scaled = math.MaxUint32
	}
	return uint32(scaled)
}

// putVerdict writes the 2-byte verdict/status pair of a response.
//
//janus:hotpath
func putVerdict(buf []byte, resp Response) {
	if resp.Allow {
		buf[0] = 1
	} else {
		buf[0] = 0
	}
	buf[1] = byte(resp.Status)
}

// clampNanos converts server-processing nanoseconds to the 4-byte wire
// field, clamped to [0, ~4.29s].
//
//janus:hotpath
func clampNanos(nanos int64) uint32 {
	if nanos < 0 {
		nanos = 0
	}
	if nanos > math.MaxUint32 {
		nanos = math.MaxUint32
	}
	return uint32(nanos)
}

//janus:hotpath
func seal(buf []byte) {
	binary.BigEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(buf[checksummedOffset:]))
}

//janus:hotpath
func checkHeader(buf []byte, wantType byte) error {
	if len(buf) < checksummedOffset {
		return ErrTruncated
	}
	if buf[0] != Magic {
		return ErrBadMagic
	}
	if buf[1] != Version {
		return ErrBadVersion
	}
	if buf[2] != wantType {
		return ErrBadType
	}
	if binary.BigEndian.Uint32(buf[12:]) != crc32.ChecksumIEEE(buf[checksummedOffset:]) {
		return ErrBadChecksum
	}
	return nil
}

// AppendRequest appends the encoded request to dst and returns the extended
// slice. The cost is clamped to non-negative and rounded to 1/1000 credit.
//
//janus:hotpath
func AppendRequest(dst []byte, req Request) ([]byte, error) {
	if len(req.Key) > MaxKeyLen {
		return dst, ErrKeyTooLong
	}
	start := len(dst)
	need := requestHeaderLen + len(req.Key)
	var flags byte
	if req.TraceID != 0 {
		flags |= FlagTraced
		need += traceIDLen
	}
	dst = growTo(dst, start, need)
	buf := dst[start:]
	putHeader(buf, typeRequest, flags, req.ID)
	binary.BigEndian.PutUint32(buf[16:], scaleCost(req.Cost))
	binary.BigEndian.PutUint16(buf[20:], uint16(len(req.Key)))
	copy(buf[22:], req.Key)
	if req.TraceID != 0 {
		binary.BigEndian.PutUint64(buf[requestHeaderLen+len(req.Key):], req.TraceID)
	}
	seal(buf)
	return dst, nil
}

// DecodeRequestKey parses a binary request datagram into every field of *req
// but Key, and returns the key's bytes, which alias buf. A server that finds
// the key's state from those bytes makes no string for a key it already
// holds, so decoding allocates nothing whatever the key. On error *req is
// left in an unspecified state.
//
//janus:hotpath
func DecodeRequestKey(buf []byte, req *Request) ([]byte, error) {
	if err := checkHeader(buf, typeRequest); err != nil {
		return nil, err
	}
	if len(buf) < requestHeaderLen {
		return nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(buf[20:]))
	if len(buf) < requestHeaderLen+n {
		return nil, ErrTruncated
	}
	req.ID = binary.BigEndian.Uint64(buf[4:])
	req.Cost = float64(binary.BigEndian.Uint32(buf[16:])) / costScale
	req.TraceID = 0
	if off := requestHeaderLen + n; buf[3]&FlagTraced != 0 {
		if len(buf) < off+traceIDLen {
			return nil, ErrTruncated
		}
		req.TraceID = binary.BigEndian.Uint64(buf[off:])
	}
	return buf[22 : 22+n], nil
}

// DecodeRequestReuse is DecodeRequestKey with the key copied into req.Key,
// reusing its storage: when the incoming key equals req.Key byte-for-byte
// the existing string is kept, so a decoder fed one recurring key allocates
// nothing. Every field of *req is overwritten; on error *req is left in an
// unspecified state.
func DecodeRequestReuse(buf []byte, req *Request) error {
	key, err := DecodeRequestKey(buf, req)
	if err != nil {
		return err
	}
	if req.Key != string(key) {
		req.Key = string(key)
	}
	return nil
}

// AppendResponse appends the encoded response to dst. Every response
// encodes; the error result is always nil.
//
//janus:hotpath
func AppendResponse(dst []byte, resp Response) ([]byte, error) {
	start := len(dst)
	need := responseLen
	var flags byte
	if resp.TraceID != 0 {
		flags |= FlagTraced
		need = responseTracedLen
	}
	dst = growTo(dst, start, need)
	buf := dst[start:]
	putHeader(buf, typeResponse, flags, resp.ID)
	putVerdict(buf[16:], resp)
	if resp.TraceID != 0 {
		binary.BigEndian.PutUint64(buf[18:], resp.TraceID)
		binary.BigEndian.PutUint32(buf[26:], clampNanos(resp.ServerNanos))
	}
	seal(buf)
	return dst, nil
}

// DecodeResponse parses a binary response datagram.
func DecodeResponse(buf []byte) (Response, error) {
	if err := checkHeader(buf, typeResponse); err != nil {
		return Response{}, err
	}
	if len(buf) < responseLen {
		return Response{}, ErrTruncated
	}
	resp := Response{
		ID:     binary.BigEndian.Uint64(buf[4:]),
		Allow:  buf[16] == 1,
		Status: Status(buf[17]),
	}
	if buf[3]&FlagTraced != 0 {
		if len(buf) < responseTracedLen {
			return Response{}, ErrTruncated
		}
		resp.TraceID = binary.BigEndian.Uint64(buf[18:])
		resp.ServerNanos = int64(binary.BigEndian.Uint32(buf[26:]))
	}
	return resp, nil
}
