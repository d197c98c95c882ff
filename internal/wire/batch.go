package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// Batched framing (DESIGN.md §10). One datagram may carry several QoS
// requests (or responses) destined for the same QoS server, amortizing the
// per-decision syscall pair and FIFO enqueue that otherwise cap the
// router→server hop.
//
// The batch rides the protocol's trailing-optional-field convention: entry 0
// is encoded EXACTLY like a legacy singleton frame, and entries 1..N-1
// follow as a flag-gated extension after the legacy payload:
//
//	-- request, after entry 0's payload (key [+ trace id]) --
//	+0     2     extra entry count M (N = M + 1)
//	-- M times --
//	+0     8     entry id
//	+8     1     entry flags (bit 0: traced)
//	+9     4     cost (fixed-point 1/1000)
//	+13    2     key length n
//	+15    n     key bytes
//	+15+n  8     trace id (only when entry flags & FlagTraced)
//
//	-- response, after entry 0's payload (verdict/status [+ trace]) --
//	+0     2     extra entry count M
//	-- M times --
//	+0     8     entry id
//	+8     1     entry flags (bit 0: traced)
//	+9     1     verdict
//	+10    1     status
//	+11    8     trace id (only when traced)
//	+19    4     server nanos (only when traced)
//
// Consequences, by construction:
//
//   - A batch of one entry is byte-identical to the legacy frame: the
//     singleton fast path costs nothing on the wire and old peers cannot
//     tell a batching sender from a legacy one until a real batch forms.
//   - An old decoder receiving a batched frame parses entry 0 correctly
//     (the extension is trailing bytes it never reads, and the CRC covers
//     the whole datagram for both sides) and answers it with a legacy
//     singleton response; entries 1..N-1 simply time out and are retried.
//     A mixed-version cluster therefore stays CORRECT and degrades only in
//     throughput — see the forward-compat tests.
//   - The batch extension must remain the FINAL extension of the frame:
//     its decoder rejects trailing bytes, which is what lets it honor the
//     declared entry count exactly.
const FlagBatched = 1 << 1

// MaxBatchEntries bounds the entries one batched frame may carry; decoders
// reject frames declaring more (a 2-byte count field could otherwise claim
// 65535 entries and force a large allocation from a 20-byte datagram).
const MaxBatchEntries = 1024

const (
	batchCountLen     = 2
	batchReqEntryLen  = 8 + 1 + 4 + 2 // id, flags, cost, key length
	batchRespEntryLen = 8 + 1 + 1 + 1 // id, flags, verdict, status
)

// Batch framing errors.
var (
	ErrEmptyBatch     = errors.New("wire: batch carries no entries")
	ErrBatchTooLarge  = errors.New("wire: batch exceeds MaxBatchEntries")
	ErrDuplicateEntry = errors.New("wire: duplicate entry id in batch")
	ErrTrailingBytes  = errors.New("wire: bytes after the final batch entry")
)

// BatchRequest is a fan-in batch of QoS admission queries carried in one
// datagram. Entry IDs must be unique within the batch.
type BatchRequest struct {
	// Entries are the batched sub-requests, in submission order.
	Entries []Request
}

// BatchResponse is the batched admission decisions for one BatchRequest,
// in the same order.
type BatchResponse struct {
	// Entries are the per-request decisions.
	Entries []Response
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

// growTo extends dst so its length is start+need, reusing capacity.
//
//janus:hotpath
func growTo(dst []byte, start, need int) []byte {
	for cap(dst)-start < need {
		dst = append(dst[:cap(dst)], 0)
	}
	return dst[:start+need]
}

// AppendBatchRequest appends the encoded batch to dst. A single-entry batch
// encodes byte-identically to AppendRequest (the singleton fast path); a
// larger batch sets FlagBatched and appends the extension. Entry IDs must be
// unique (ErrDuplicateEntry) and the batch bounded (ErrBatchTooLarge).
//
//janus:hotpath
func AppendBatchRequest(dst []byte, b BatchRequest) ([]byte, error) {
	switch {
	case len(b.Entries) == 0:
		return dst, ErrEmptyBatch
	case len(b.Entries) == 1:
		return AppendRequest(dst, b.Entries[0])
	case len(b.Entries) > MaxBatchEntries:
		return dst, ErrBatchTooLarge
	}
	if err := checkUniqueIDs(b.Entries); err != nil {
		return dst, err
	}
	for _, e := range b.Entries {
		// The lease section and the batch extension are mutually exclusive
		// (lease.go): the batch extension must stay the frame's final bytes.
		if e.Lease.Op != 0 {
			return dst, ErrLeaseInBatch
		}
	}
	head := b.Entries[0]
	need := requestHeaderLen + len(head.Key) + batchCountLen
	flags := byte(FlagBatched)
	if head.TraceID != 0 {
		flags |= FlagTraced
		need += traceIDLen
	}
	for _, e := range b.Entries {
		if len(e.Key) > MaxKeyLen {
			return dst, ErrKeyTooLong
		}
	}
	for _, e := range b.Entries[1:] {
		need += batchReqEntryLen + len(e.Key)
		if e.TraceID != 0 {
			need += traceIDLen
		}
	}
	start := len(dst)
	dst = growTo(dst, start, need)
	buf := dst[start:]
	putHeader(buf, typeRequest, flags, head.ID)
	binary.BigEndian.PutUint32(buf[16:], scaleCost(head.Cost))
	binary.BigEndian.PutUint16(buf[20:], uint16(len(head.Key)))
	copy(buf[22:], head.Key)
	off := requestHeaderLen + len(head.Key)
	if head.TraceID != 0 {
		binary.BigEndian.PutUint64(buf[off:], head.TraceID)
		off += traceIDLen
	}
	binary.BigEndian.PutUint16(buf[off:], uint16(len(b.Entries)-1))
	off += batchCountLen
	for _, e := range b.Entries[1:] {
		binary.BigEndian.PutUint64(buf[off:], e.ID)
		var ef byte
		if e.TraceID != 0 {
			ef |= FlagTraced
		}
		buf[off+8] = ef
		binary.BigEndian.PutUint32(buf[off+9:], scaleCost(e.Cost))
		binary.BigEndian.PutUint16(buf[off+13:], uint16(len(e.Key)))
		off += batchReqEntryLen
		copy(buf[off:], e.Key)
		off += len(e.Key)
		if e.TraceID != 0 {
			binary.BigEndian.PutUint64(buf[off:], e.TraceID)
			off += traceIDLen
		}
	}
	seal(buf)
	return dst, nil
}

// DecodeBatchRequest parses a request datagram into its batch form. Legacy
// singleton frames decode as a batch of one, so one decoder serves both
// protocol generations. Batched frames must declare their entry count
// exactly: truncated entries, duplicate entry IDs, and bytes beyond the
// final entry are all rejected.
func DecodeBatchRequest(buf []byte) (BatchRequest, error) {
	var b BatchRequest
	if err := DecodeBatchRequestReuse(buf, &b); err != nil {
		return BatchRequest{}, err
	}
	return b, nil
}

// growEntries resizes b.Entries to n, reusing the backing array — and the
// key strings interned in it — across decodes.
//
//janus:hotpath
func growEntries(b *BatchRequest, n int) {
	var zero Request
	for cap(b.Entries) < n {
		b.Entries = append(b.Entries[:cap(b.Entries)], zero)
	}
	b.Entries = b.Entries[:n]
}

// DecodeBatchRequestReuse parses a request datagram into *b, reusing the
// entry slice and its interned key strings (see DecodeRequestReuse): a
// worker draining a socket whose batches carry a recurring key set decodes
// with zero heap allocations per datagram. Every entry is overwritten; on
// error *b is left in an unspecified state.
//
//janus:hotpath
func DecodeBatchRequestReuse(buf []byte, b *BatchRequest) error {
	if err := checkHeader(buf, typeRequest); err != nil {
		return err
	}
	if buf[3]&FlagBatched == 0 {
		growEntries(b, 1)
		return DecodeRequestReuse(buf, &b.Entries[0])
	}
	if buf[3]&FlagLease != 0 {
		return ErrLeaseInBatch
	}
	if len(buf) < requestHeaderLen {
		return ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(buf[20:]))
	off := requestHeaderLen + n
	if len(buf) < off {
		return ErrTruncated
	}
	traceOff := 0
	if buf[3]&FlagTraced != 0 {
		if len(buf) < off+traceIDLen {
			return ErrTruncated
		}
		traceOff = off
		off += traceIDLen
	}
	if len(buf) < off+batchCountLen {
		return ErrTruncated
	}
	extras := int(binary.BigEndian.Uint16(buf[off:]))
	off += batchCountLen
	if extras+1 > MaxBatchEntries {
		return ErrBatchTooLarge
	}
	growEntries(b, extras+1)
	head := &b.Entries[0]
	head.ID = binary.BigEndian.Uint64(buf[4:])
	head.Cost = float64(binary.BigEndian.Uint32(buf[16:])) / costScale
	if key := buf[22 : 22+n]; head.Key != string(key) {
		//lint:ignore hotalloc a key change re-interns the string; recurring keys reuse it
		head.Key = string(key)
	}
	head.TraceID = 0
	head.Lease = LeaseAsk{}
	if traceOff != 0 {
		head.TraceID = binary.BigEndian.Uint64(buf[traceOff:])
	}
	for i := 1; i <= extras; i++ {
		if len(buf) < off+batchReqEntryLen {
			return ErrTruncated
		}
		e := &b.Entries[i]
		e.ID = binary.BigEndian.Uint64(buf[off:])
		e.Cost = float64(binary.BigEndian.Uint32(buf[off+9:])) / costScale
		e.TraceID = 0
		e.Lease = LeaseAsk{}
		ef := buf[off+8]
		kn := int(binary.BigEndian.Uint16(buf[off+13:]))
		off += batchReqEntryLen
		if len(buf) < off+kn {
			return ErrTruncated
		}
		if key := buf[off : off+kn]; e.Key != string(key) {
			//lint:ignore hotalloc a key change re-interns the string; recurring keys reuse it
			e.Key = string(key)
		}
		off += kn
		if ef&FlagTraced != 0 {
			if len(buf) < off+traceIDLen {
				return ErrTruncated
			}
			e.TraceID = binary.BigEndian.Uint64(buf[off:])
			off += traceIDLen
		}
	}
	if off != len(buf) {
		return ErrTrailingBytes
	}
	return checkUniqueIDs(b.Entries)
}

// AppendBatchResponse appends the encoded batched decisions to dst. A
// single-entry batch encodes byte-identically to AppendResponse.
//
//janus:hotpath
func AppendBatchResponse(dst []byte, b BatchResponse) ([]byte, error) {
	switch {
	case len(b.Entries) == 0:
		return dst, ErrEmptyBatch
	case len(b.Entries) == 1:
		return AppendResponse(dst, b.Entries[0])
	case len(b.Entries) > MaxBatchEntries:
		return dst, ErrBatchTooLarge
	}
	if err := checkUniqueRespIDs(b.Entries); err != nil {
		return dst, err
	}
	for _, e := range b.Entries {
		if e.Lease.Op != 0 {
			return dst, ErrLeaseInBatch
		}
	}
	head := b.Entries[0]
	need := responseLen + batchCountLen
	flags := byte(FlagBatched)
	if head.TraceID != 0 {
		flags |= FlagTraced
		need += traceIDLen + 4
	}
	for _, e := range b.Entries[1:] {
		need += batchRespEntryLen
		if e.TraceID != 0 {
			need += traceIDLen + 4
		}
	}
	start := len(dst)
	dst = growTo(dst, start, need)
	buf := dst[start:]
	putHeader(buf, typeResponse, flags, head.ID)
	putVerdict(buf[16:], head)
	off := responseLen
	if head.TraceID != 0 {
		binary.BigEndian.PutUint64(buf[18:], head.TraceID)
		binary.BigEndian.PutUint32(buf[26:], clampNanos(head.ServerNanos))
		off = responseTracedLen
	}
	binary.BigEndian.PutUint16(buf[off:], uint16(len(b.Entries)-1))
	off += batchCountLen
	for _, e := range b.Entries[1:] {
		binary.BigEndian.PutUint64(buf[off:], e.ID)
		var ef byte
		if e.TraceID != 0 {
			ef |= FlagTraced
		}
		buf[off+8] = ef
		putVerdict(buf[off+9:], e)
		off += batchRespEntryLen
		if e.TraceID != 0 {
			binary.BigEndian.PutUint64(buf[off:], e.TraceID)
			binary.BigEndian.PutUint32(buf[off+traceIDLen:], clampNanos(e.ServerNanos))
			off += traceIDLen + 4
		}
	}
	seal(buf)
	return dst, nil
}

// DecodeBatchResponse parses a response datagram into its batch form; legacy
// singleton frames decode as a batch of one. A batching client therefore
// keeps working against a pre-batching server, whose singleton replies
// (answering entry 0 of any batch it received) decode here unchanged.
func DecodeBatchResponse(buf []byte) (BatchResponse, error) {
	if err := checkHeader(buf, typeResponse); err != nil {
		return BatchResponse{}, err
	}
	if buf[3]&FlagBatched == 0 {
		resp, err := DecodeResponse(buf)
		if err != nil {
			return BatchResponse{}, err
		}
		return BatchResponse{Entries: []Response{resp}}, nil
	}
	if buf[3]&FlagLease != 0 {
		return BatchResponse{}, ErrLeaseInBatch
	}
	if len(buf) < responseLen {
		return BatchResponse{}, ErrTruncated
	}
	head := Response{
		ID:     binary.BigEndian.Uint64(buf[4:]),
		Allow:  buf[16] == 1,
		Status: Status(buf[17]),
	}
	off := responseLen
	if buf[3]&FlagTraced != 0 {
		if len(buf) < responseTracedLen {
			return BatchResponse{}, ErrTruncated
		}
		head.TraceID = binary.BigEndian.Uint64(buf[18:])
		head.ServerNanos = int64(binary.BigEndian.Uint32(buf[26:]))
		off = responseTracedLen
	}
	if len(buf) < off+batchCountLen {
		return BatchResponse{}, ErrTruncated
	}
	extras := int(binary.BigEndian.Uint16(buf[off:]))
	off += batchCountLen
	if extras+1 > MaxBatchEntries {
		return BatchResponse{}, ErrBatchTooLarge
	}
	entries := make([]Response, 1, extras+1)
	entries[0] = head
	for i := 0; i < extras; i++ {
		if len(buf) < off+batchRespEntryLen {
			return BatchResponse{}, ErrTruncated
		}
		e := Response{
			ID:     binary.BigEndian.Uint64(buf[off:]),
			Allow:  buf[off+9] == 1,
			Status: Status(buf[off+10]),
		}
		ef := buf[off+8]
		off += batchRespEntryLen
		if ef&FlagTraced != 0 {
			if len(buf) < off+traceIDLen+4 {
				return BatchResponse{}, ErrTruncated
			}
			e.TraceID = binary.BigEndian.Uint64(buf[off:])
			e.ServerNanos = int64(binary.BigEndian.Uint32(buf[off+traceIDLen:]))
			off += traceIDLen + 4
		}
		entries = append(entries, e)
	}
	if off != len(buf) {
		return BatchResponse{}, ErrTrailingBytes
	}
	if err := checkUniqueRespIDs(entries); err != nil {
		return BatchResponse{}, err
	}
	return BatchResponse{Entries: entries}, nil
}

// putVerdict writes the 2-byte verdict/status pair of one response entry.
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
// field (clamped to [0, ~4.29s], matching the singleton encoding).
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

// uniqueScanMax is the batch size at or below which duplicate detection uses
// the quadratic scan: for batches of up to a few dozen entries, n²
// comparisons over a cache-resident slice beat building a map — and allocate
// nothing.
const uniqueScanMax = 64

// checkUniqueIDs rejects duplicate request IDs within one batch: the ID is
// the response-correlation key, so a duplicate would make two entries
// indistinguishable to the sender (and a duplicated entry is how a corrupt
// or replayed partial batch tries to double-charge a retry).
//
//janus:hotpath
func checkUniqueIDs(entries []Request) error {
	if len(entries) <= uniqueScanMax {
		for i := 1; i < len(entries); i++ {
			for j := 0; j < i; j++ {
				if entries[i].ID == entries[j].ID {
					return ErrDuplicateEntry
				}
			}
		}
		return nil
	}
	//lint:ignore hotalloc batches past uniqueScanMax are rare; the map check is off the pin path
	return mapUniqueIDs(entries)
}

//janus:hotpath
func checkUniqueRespIDs(entries []Response) error {
	if len(entries) <= uniqueScanMax {
		for i := 1; i < len(entries); i++ {
			for j := 0; j < i; j++ {
				if entries[i].ID == entries[j].ID {
					return ErrDuplicateEntry
				}
			}
		}
		return nil
	}
	//lint:ignore hotalloc batches past uniqueScanMax are rare; the map check is off the pin path
	return mapUniqueRespIDs(entries)
}

// mapUniqueIDs is the large-batch slow path of checkUniqueIDs.
func mapUniqueIDs(entries []Request) error {
	seen := make(map[uint64]struct{}, len(entries))
	for _, e := range entries {
		if _, dup := seen[e.ID]; dup {
			return ErrDuplicateEntry
		}
		seen[e.ID] = struct{}{}
	}
	return nil
}

func mapUniqueRespIDs(entries []Response) error {
	seen := make(map[uint64]struct{}, len(entries))
	for _, e := range entries {
		if _, dup := seen[e.ID]; dup {
			return ErrDuplicateEntry
		}
		seen[e.ID] = struct{}{}
	}
	return nil
}
