package wire

import (
	"encoding/binary"
	"errors"
	"time"
)

// Lease framing (DESIGN.md §11). A credit lease delegates a bounded slice of
// a bucket's refill rate to a router so hot-key admission happens locally,
// without the UDP round trip. All lease traffic piggybacks on ordinary
// admission exchanges as the protocol's third flag-gated trailing extension:
// a request may carry an ask/renew/renounce section after its key (and trace
// id), and a response may carry a grant/deny/revoke section after its status
// (and trace fields). No dedicated lease RPC exists — a router asks by
// decorating a request it had to send anyway, and a server revokes by
// decorating whatever response it next sends to that holder.
//
//	-- request lease section, after key [+ trace id] --
//	+0     1     op (1 ask, 2 renew, 3 renounce)
//	+1     4     observed demand, decisions/second (fixed-point 1/1000)
//	+5     8     membership epoch the holder is operating under
//
//	-- response lease section, after verdict/status [+ trace fields] --
//	+0     1     op (1 grant, 2 deny, 3 revoke)
//	+1     4     rate share, credits/second (fixed-point 1/1000)
//	+5     4     burst, credits (fixed-point 1/1000)
//	+9     4     TTL, milliseconds (grant: 1..MaxLeaseTTL)
//	+13    8     membership epoch (echo of the ask's epoch)
//	+21    2     key length m (0: the enclosing frame's key)
//	+23    m     key bytes (revoke only: lets a revocation for key A ride a
//	             response for key B, since leased keys generate no traffic)
//
// Old decoders ignore the section (trailing bytes they never read; the CRC
// covers the full datagram), so a leasing router against an old janusd gets
// plain responses and simply never installs a lease, and an old router never
// sets the flag — mixed-version clusters behave exactly as before.
const FlagLease = 1 << 2

// MaxLeaseTTL bounds the lifetime of one lease grant; the decoder rejects
// frames claiming more. The TTL is the safety horizon — after revocation
// loss or a partition, a holder can over-admit for at most this long — so it
// must stay short relative to bucket drain times.
const MaxLeaseTTL = 60 * time.Second

// Lease operation codes. Request and response sections share the numbering
// but not the meaning, so each side gets its own names.
type LeaseOp uint8

// Request-side lease ops.
const (
	// LeaseOpAsk requests a fresh lease for the enclosing request's key.
	LeaseOpAsk LeaseOp = 1
	// LeaseOpRenew extends an existing lease (and adapts its rate share to
	// the carried demand).
	LeaseOpRenew LeaseOp = 2
	// LeaseOpRenounce returns a lease the holder no longer wants, freeing
	// the reserved refill rate immediately instead of at TTL expiry.
	LeaseOpRenounce LeaseOp = 3
)

// Response-side lease ops.
const (
	// LeaseOpGrant delegates Rate/Burst for TTL to the asking holder.
	LeaseOpGrant LeaseOp = 1
	// LeaseOpDeny refuses the ask; the holder keeps falling through.
	LeaseOpDeny LeaseOp = 2
	// LeaseOpRevoke withdraws a lease before its TTL (rule edited, bucket
	// handed off, key evicted). Key names the revoked lease when it differs
	// from the enclosing frame's key.
	LeaseOpRevoke LeaseOp = 3
)

// LeaseAsk is the request-side lease section. The zero value (Op == 0)
// means no lease section, mirroring TraceID == 0 for the trace extension.
type LeaseAsk struct {
	// Op is LeaseOpAsk, LeaseOpRenew, or LeaseOpRenounce.
	Op LeaseOp
	// Demand is the holder's observed decision rate for the key
	// (decisions/second, EWMA); the server sizes the rate share from it.
	Demand float64
	// Epoch is the membership epoch the holder operates under; grants are
	// scoped to it and die with the view.
	Epoch uint64
}

// LeaseGrant is the response-side lease section. The zero value (Op == 0)
// means no lease section.
type LeaseGrant struct {
	// Op is LeaseOpGrant, LeaseOpDeny, or LeaseOpRevoke.
	Op LeaseOp
	// Rate is the delegated refill share in credits/second.
	Rate float64
	// Burst is the credit the holder's local bucket starts with (prepaid
	// out of the server bucket's current credit).
	Burst float64
	// TTL bounds the lease lifetime; [1ms, MaxLeaseTTL] for grants,
	// millisecond resolution on the wire.
	TTL time.Duration
	// Epoch echoes the ask's epoch.
	Epoch uint64
	// Key names the leased key when it differs from the enclosing frame's
	// key (piggybacked revocations); empty otherwise.
	Key string
}

const (
	leaseAskLen   = 1 + 4 + 8             // op, demand, epoch
	leaseGrantLen = 1 + 4 + 4 + 4 + 8 + 2 // op, rate, burst, ttl, epoch, key length
)

// Lease framing errors.
var (
	ErrLeaseBadOp  = errors.New("wire: bad lease op")
	ErrLeaseBounds = errors.New("wire: lease TTL out of bounds (grant: 1ms..MaxLeaseTTL)")
)

func (a LeaseAsk) validate() error {
	if a.Op < LeaseOpAsk || a.Op > LeaseOpRenounce {
		return ErrLeaseBadOp
	}
	return nil
}

func (g LeaseGrant) validate() error {
	switch {
	case g.Op < LeaseOpGrant || g.Op > LeaseOpRevoke:
		return ErrLeaseBadOp
	// A grant's TTL travels in whole milliseconds: under 1ms it would
	// encode as 0, which every decoder rejects.
	case g.Op == LeaseOpGrant && (g.TTL < time.Millisecond || g.TTL > MaxLeaseTTL):
		return ErrLeaseBounds
	case g.TTL < 0 || g.TTL > MaxLeaseTTL:
		return ErrLeaseBounds
	case len(g.Key) > MaxKeyLen:
		return ErrKeyTooLong
	default:
		return nil
	}
}

//janus:hotpath
func putLeaseAsk(buf []byte, a LeaseAsk) {
	buf[0] = byte(a.Op)
	binary.BigEndian.PutUint32(buf[1:], scaleCost(a.Demand))
	binary.BigEndian.PutUint64(buf[5:], a.Epoch)
}

// parseLeaseAsk decodes the request lease section at buf[off:], returning
// the section and the new offset.
//
//janus:hotpath
func parseLeaseAsk(buf []byte, off int) (LeaseAsk, int, error) {
	if len(buf) < off+leaseAskLen {
		return LeaseAsk{}, off, ErrTruncated
	}
	a := LeaseAsk{
		Op:     LeaseOp(buf[off]),
		Demand: float64(binary.BigEndian.Uint32(buf[off+1:])) / costScale,
		Epoch:  binary.BigEndian.Uint64(buf[off+5:]),
	}
	if err := a.validate(); err != nil {
		return LeaseAsk{}, off, err
	}
	return a, off + leaseAskLen, nil
}

//janus:hotpath
func putLeaseGrant(buf []byte, g LeaseGrant) {
	buf[0] = byte(g.Op)
	binary.BigEndian.PutUint32(buf[1:], scaleCost(g.Rate))
	binary.BigEndian.PutUint32(buf[5:], scaleCost(g.Burst))
	binary.BigEndian.PutUint32(buf[9:], uint32(g.TTL/time.Millisecond))
	binary.BigEndian.PutUint64(buf[13:], g.Epoch)
	binary.BigEndian.PutUint16(buf[21:], uint16(len(g.Key)))
	copy(buf[23:], g.Key)
}

// parseLeaseGrant decodes the response lease section at buf[off:], returning
// the section and the new offset.
//
//janus:hotpath
func parseLeaseGrant(buf []byte, off int) (LeaseGrant, int, error) {
	if len(buf) < off+leaseGrantLen {
		return LeaseGrant{}, off, ErrTruncated
	}
	g := LeaseGrant{
		Op:    LeaseOp(buf[off]),
		Rate:  float64(binary.BigEndian.Uint32(buf[off+1:])) / costScale,
		Burst: float64(binary.BigEndian.Uint32(buf[off+5:])) / costScale,
		TTL:   time.Duration(binary.BigEndian.Uint32(buf[off+9:])) * time.Millisecond,
		Epoch: binary.BigEndian.Uint64(buf[off+13:]),
	}
	m := int(binary.BigEndian.Uint16(buf[off+21:]))
	off += leaseGrantLen
	if len(buf) < off+m {
		return LeaseGrant{}, off, ErrTruncated
	}
	if m > 0 {
		// Only piggybacked revocations name a key; grants and denials (the
		// steady-state renewal traffic) leave m == 0 and allocate nothing.
		//lint:ignore hotalloc revocation frames are rare control traffic
		g.Key = string(buf[off : off+m])
	}
	off += m
	if err := g.validate(); err != nil {
		return LeaseGrant{}, off, err
	}
	return g, off, nil
}
