package wire

import (
	"encoding/binary"
	"testing"
	"time"
)

// mustEncodeResponse is the test-side shim for the error-returning encoder:
// lease-free responses cannot fail to encode.
func mustEncodeResponse(resp Response) []byte {
	buf, err := EncodeResponse(resp)
	if err != nil {
		panic(err)
	}
	return buf
}

func TestLeaseRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{ID: 1, Key: "alice", Cost: 1, Lease: LeaseAsk{Op: LeaseOpAsk, Demand: 123.5, Epoch: 7}},
		{ID: 2, Key: "bob", Cost: 2.5, Lease: LeaseAsk{Op: LeaseOpRenew, Demand: 0.001, Epoch: 1 << 40}},
		{ID: 3, Key: "carol", Lease: LeaseAsk{Op: LeaseOpRenounce}},
		{ID: 4, Key: "dave", TraceID: 0xfeed, Lease: LeaseAsk{Op: LeaseOpAsk, Demand: 99, Epoch: 3}},
	}
	for _, want := range cases {
		buf, err := EncodeRequest(want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got != want {
			t.Errorf("round trip: got %+v want %+v", got, want)
		}
		if buf[3]&FlagLease == 0 {
			t.Errorf("FlagLease not set on %+v", want)
		}
	}
}

func TestLeaseResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{ID: 1, Allow: true, Status: StatusOK,
			Lease: LeaseGrant{Op: LeaseOpGrant, Rate: 50, Burst: 12.5, TTL: time.Second, Epoch: 9}},
		{ID: 2, Allow: false, Status: StatusOK,
			Lease: LeaseGrant{Op: LeaseOpDeny, Epoch: 4}},
		{ID: 3, Allow: true, Status: StatusOK,
			Lease: LeaseGrant{Op: LeaseOpRevoke, Epoch: 2, Key: "other-key"}},
		{ID: 4, Allow: true, Status: StatusOK, TraceID: 0xabc, ServerNanos: 1234,
			Lease: LeaseGrant{Op: LeaseOpGrant, Rate: 1, Burst: 0, TTL: 250 * time.Millisecond, Epoch: 1}},
	}
	for _, want := range cases {
		buf, err := EncodeResponse(want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := DecodeResponse(buf)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got != want {
			t.Errorf("round trip: got %+v want %+v", got, want)
		}
	}
}

// decodeLegacyRequest is DecodeRequest as it stood before the lease
// extension (trace generation): it reads the key, the trace id when flagged,
// and ignores everything after — the forward-compat contract the lease
// section rides on.
func decodeLegacyRequest(buf []byte) (Request, error) {
	if err := checkHeader(buf, typeRequest); err != nil {
		return Request{}, err
	}
	if len(buf) < requestHeaderLen {
		return Request{}, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(buf[20:]))
	if len(buf) < requestHeaderLen+n {
		return Request{}, ErrTruncated
	}
	req := Request{
		ID:   binary.BigEndian.Uint64(buf[4:]),
		Cost: float64(binary.BigEndian.Uint32(buf[16:])) / costScale,
		Key:  string(buf[22 : 22+n]),
	}
	if buf[3]&FlagTraced != 0 {
		if len(buf) < requestHeaderLen+n+traceIDLen {
			return Request{}, ErrTruncated
		}
		req.TraceID = binary.BigEndian.Uint64(buf[requestHeaderLen+n:])
	}
	return req, nil
}

// decodeLegacyResponse is the pre-lease DecodeResponse.
func decodeLegacyResponse(buf []byte) (Response, error) {
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

// TestOldDecoderIgnoresLeaseSections is the mixed-version contract: a peer
// that predates leasing parses a lease-carrying frame exactly as if the
// section were absent (it is trailing bytes the key length / fixed layout
// never reads, and the CRC covers it), so an old janusd answers the
// admission normally and simply never grants, and an old router never sees
// a grant it could misread.
func TestOldDecoderIgnoresLeaseSections(t *testing.T) {
	req := Request{ID: 11, Key: "hot", Cost: 1, TraceID: 0x77,
		Lease: LeaseAsk{Op: LeaseOpAsk, Demand: 500, Epoch: 3}}
	buf, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeLegacyRequest(buf)
	if err != nil {
		t.Fatalf("legacy decode: %v", err)
	}
	want := req
	want.Lease = LeaseAsk{}
	if got != want {
		t.Errorf("legacy request decode: got %+v want %+v", got, want)
	}

	resp := Response{ID: 11, Allow: true, Status: StatusOK, TraceID: 0x77, ServerNanos: 42,
		Lease: LeaseGrant{Op: LeaseOpGrant, Rate: 10, Burst: 5, TTL: time.Second, Epoch: 3}}
	rbuf, err := EncodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	gotR, err := decodeLegacyResponse(rbuf)
	if err != nil {
		t.Fatalf("legacy decode: %v", err)
	}
	wantR := resp
	wantR.Lease = LeaseGrant{}
	if gotR != wantR {
		t.Errorf("legacy response decode: got %+v want %+v", gotR, wantR)
	}
}

func TestLeaseBounds(t *testing.T) {
	if _, err := EncodeResponse(Response{Lease: LeaseGrant{Op: LeaseOpGrant, Rate: 1, TTL: MaxLeaseTTL + time.Second}}); err != ErrLeaseBounds {
		t.Errorf("encode TTL over MaxLeaseTTL: got %v want ErrLeaseBounds", err)
	}
	if _, err := EncodeResponse(Response{Lease: LeaseGrant{Op: LeaseOpGrant, Rate: 1}}); err != ErrLeaseBounds {
		t.Errorf("encode grant with zero TTL: got %v want ErrLeaseBounds", err)
	}
	// A sub-millisecond TTL would travel as 0 ms, which the decoder rejects:
	// the encoder refuses it, and the 1 ms floor round-trips.
	if _, err := EncodeResponse(Response{Lease: LeaseGrant{Op: LeaseOpGrant, Rate: 1, TTL: 500 * time.Microsecond}}); err != ErrLeaseBounds {
		t.Errorf("encode grant with 500us TTL: got %v want ErrLeaseBounds", err)
	}
	floor := Response{ID: 2, Lease: LeaseGrant{Op: LeaseOpGrant, Rate: 1, TTL: time.Millisecond}}
	if got, err := DecodeResponse(mustEncodeResponse(floor)); err != nil || got != floor {
		t.Errorf("1ms grant round trip: got %+v, %v; want %+v", got, err, floor)
	}
	if _, err := EncodeResponse(Response{Lease: LeaseGrant{Op: 9, TTL: time.Second}}); err != ErrLeaseBadOp {
		t.Errorf("encode bad grant op: got %v want ErrLeaseBadOp", err)
	}
	if _, err := EncodeRequest(Request{Key: "k", Lease: LeaseAsk{Op: 7}}); err != ErrLeaseBadOp {
		t.Errorf("encode bad ask op: got %v want ErrLeaseBadOp", err)
	}

	// Decoder side: corrupt a valid grant's TTL and op in place.
	base := Response{ID: 1, Lease: LeaseGrant{Op: LeaseOpGrant, Rate: 1, TTL: time.Second}}
	buf := mustEncodeResponse(base)
	off := responseLen
	binary.BigEndian.PutUint32(buf[off+9:], uint32(MaxLeaseTTL/time.Millisecond)+1)
	seal(buf)
	if _, err := DecodeResponse(buf); err != ErrLeaseBounds {
		t.Errorf("decode TTL over MaxLeaseTTL: got %v want ErrLeaseBounds", err)
	}
	buf = mustEncodeResponse(base)
	buf[off] = 0
	seal(buf)
	if _, err := DecodeResponse(buf); err != ErrLeaseBadOp {
		t.Errorf("decode zero lease op: got %v want ErrLeaseBadOp", err)
	}
	abuf, err := EncodeRequest(Request{Key: "k", Lease: LeaseAsk{Op: LeaseOpAsk, Demand: 1}})
	if err != nil {
		t.Fatal(err)
	}
	abuf[requestHeaderLen+1] = 200
	seal(abuf)
	if _, err := DecodeRequest(abuf); err != ErrLeaseBadOp {
		t.Errorf("decode bad ask op: got %v want ErrLeaseBadOp", err)
	}

	// Truncating the lease section is detected.
	tbuf := mustEncodeResponse(base)
	tbuf = tbuf[:len(tbuf)-4]
	seal(tbuf)
	if _, err := DecodeResponse(tbuf); err != ErrTruncated {
		t.Errorf("decode truncated lease section: got %v want ErrTruncated", err)
	}
}

// FuzzLeaseFrameDecode covers both directions of the lease extension: no
// panics on arbitrary bytes, and any accepted frame respects the section's
// bounds (valid op, TTL within (0, MaxLeaseTTL] for grants, non-negative
// rates) and survives a re-encode round trip.
func FuzzLeaseFrameDecode(f *testing.F) {
	seedReq, _ := EncodeRequest(Request{ID: 1, Key: "hot", Cost: 1,
		Lease: LeaseAsk{Op: LeaseOpAsk, Demand: 321, Epoch: 5}})
	f.Add(seedReq)
	seedRenew, _ := EncodeRequest(Request{ID: 2, Key: "warm", TraceID: 7,
		Lease: LeaseAsk{Op: LeaseOpRenew, Demand: 12, Epoch: 6}})
	f.Add(seedRenew)
	seedGrant, _ := EncodeResponse(Response{ID: 1, Allow: true,
		Lease: LeaseGrant{Op: LeaseOpGrant, Rate: 10, Burst: 2, TTL: time.Second, Epoch: 5}})
	f.Add(seedGrant)
	seedRevoke, _ := EncodeResponse(Response{ID: 2, Allow: true, TraceID: 9,
		Lease: LeaseGrant{Op: LeaseOpRevoke, Epoch: 5, Key: "gone"}})
	f.Add(seedRevoke)

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRequest(data); err == nil && req.Lease.Op != 0 {
			if req.Lease.Op < LeaseOpAsk || req.Lease.Op > LeaseOpRenounce {
				t.Fatalf("accepted bad ask op %d", req.Lease.Op)
			}
			if req.Lease.Demand < 0 {
				t.Fatalf("accepted negative demand %v", req.Lease.Demand)
			}
			buf, err := EncodeRequest(req)
			if err != nil {
				t.Fatalf("re-encode accepted request: %v", err)
			}
			back, err := DecodeRequest(buf)
			if err != nil || back != req {
				t.Fatalf("request round trip: %+v != %+v (%v)", back, req, err)
			}
		}
		if resp, err := DecodeResponse(data); err == nil && resp.Lease.Op != 0 {
			g := resp.Lease
			if g.Op < LeaseOpGrant || g.Op > LeaseOpRevoke {
				t.Fatalf("accepted bad grant op %d", g.Op)
			}
			if g.Rate < 0 || g.Burst < 0 {
				t.Fatalf("accepted negative rate/burst %+v", g)
			}
			if g.TTL < 0 || g.TTL > MaxLeaseTTL || (g.Op == LeaseOpGrant && g.TTL == 0) {
				t.Fatalf("accepted out-of-bounds TTL %v (op %d)", g.TTL, g.Op)
			}
			buf, err := EncodeResponse(resp)
			if err != nil {
				t.Fatalf("re-encode accepted response: %v", err)
			}
			back, err := DecodeResponse(buf)
			if err != nil || back != resp {
				t.Fatalf("response round trip: %+v != %+v (%v)", back, resp, err)
			}
		}
	})
}
