package wire

import (
	"math"
	"testing"
)

func TestTracedRequestRoundTrip(t *testing.T) {
	req := Request{ID: 7, Key: "tenant-a", Cost: 2.5, TraceID: 0xdeadbeefcafe}
	buf, err := encodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if buf[3]&FlagTraced == 0 {
		t.Fatal("traced request missing FlagTraced")
	}
	got, err := decodeRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("round trip = %+v, want %+v", got, req)
	}
}

func TestUntracedRequestHasNoFlag(t *testing.T) {
	buf, err := encodeRequest(Request{ID: 1, Key: "k", Cost: 1})
	if err != nil {
		t.Fatal(err)
	}
	if buf[3] != 0 {
		t.Fatalf("flags = %x, want 0", buf[3])
	}
	if len(buf) != requestHeaderLen+1 {
		t.Fatalf("untraced frame is %d bytes, want %d", len(buf), requestHeaderLen+1)
	}
}

func TestTracedResponseRoundTrip(t *testing.T) {
	resp := Response{ID: 9, Allow: true, Status: StatusOK, TraceID: 0xabc, ServerNanos: 12345}
	got, err := DecodeResponse(mustEncodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if got != resp {
		t.Fatalf("round trip = %+v, want %+v", got, resp)
	}
}

func TestTracedResponseNanosClamped(t *testing.T) {
	for _, nanos := range []int64{-5, math.MaxInt64} {
		resp := Response{ID: 1, TraceID: 1, ServerNanos: nanos}
		got, err := DecodeResponse(mustEncodeResponse(resp))
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if nanos > 0 {
			want = math.MaxUint32
		}
		if got.ServerNanos != want {
			t.Fatalf("ServerNanos %d decoded as %d, want %d", nanos, got.ServerNanos, want)
		}
	}
}

// TestTracedFrameTruncated covers the decode guard: a frame whose flag
// promises trace fields but whose payload is short must fail cleanly.
func TestTracedFrameTruncated(t *testing.T) {
	buf, err := encodeRequest(Request{ID: 1, Key: "k", TraceID: 5})
	if err != nil {
		t.Fatal(err)
	}
	short := buf[:len(buf)-4]
	reseal(short)
	if _, err := decodeRequest(short); err != ErrTruncated {
		t.Fatalf("truncated traced request error = %v, want ErrTruncated", err)
	}

	rbuf := mustEncodeResponse(Response{ID: 1, TraceID: 5})
	shortR := rbuf[:len(rbuf)-2]
	reseal(shortR)
	if _, err := DecodeResponse(shortR); err != ErrTruncated {
		t.Fatalf("truncated traced response error = %v, want ErrTruncated", err)
	}
}

// TestOldDecoderSkipsTrailingFields proves the forward-compat contract
// documented in DESIGN.md §7: a decoder that does not know about a trailing
// optional field (simulated by clearing the flag and re-sealing) still
// decodes the base payload from a longer frame.
func TestOldDecoderSkipsTrailingFields(t *testing.T) {
	buf, err := encodeRequest(Request{ID: 3, Key: "key", Cost: 1, TraceID: 0x1234})
	if err != nil {
		t.Fatal(err)
	}
	buf[3] &^= FlagTraced // what an old encoder's flag byte would say
	reseal(buf)
	got, err := decodeRequest(buf)
	if err != nil {
		t.Fatalf("old-style decode of longer frame: %v", err)
	}
	if got.TraceID != 0 || got.Key != "key" || got.ID != 3 {
		t.Fatalf("decoded %+v", got)
	}

	rbuf := mustEncodeResponse(Response{ID: 4, Allow: true, TraceID: 0x99, ServerNanos: 7})
	rbuf[3] &^= FlagTraced
	reseal(rbuf)
	gotR, err := DecodeResponse(rbuf)
	if err != nil {
		t.Fatalf("old-style decode of longer response: %v", err)
	}
	if gotR.TraceID != 0 || !gotR.Allow || gotR.ID != 4 {
		t.Fatalf("decoded %+v", gotR)
	}
}

// reseal recomputes the CRC after a test mutated the frame.
func reseal(buf []byte) { seal(buf) }
