package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

func sampleBatchReq() BatchRequest {
	return BatchRequest{Entries: []Request{
		{ID: 101, Key: "alice", Cost: 1},
		{ID: 102, Key: "bob", Cost: 2.5, TraceID: 0xdeadbeef},
		{ID: 103, Key: "", Cost: 0.001},
		{ID: 104, Key: "carol/with/slashes", Cost: 3},
	}}
}

func sampleBatchResp() BatchResponse {
	return BatchResponse{Entries: []Response{
		{ID: 101, Allow: true, Status: StatusOK},
		{ID: 102, Allow: false, Status: StatusDefaultRule, TraceID: 0xdeadbeef, ServerNanos: 1234},
		{ID: 103, Allow: true, Status: StatusError},
	}}
}

func TestBatchRequestRoundTrip(t *testing.T) {
	b := sampleBatchReq()
	pkt, err := AppendBatchRequest(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchRequest(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("round trip changed value:\n got %+v\nwant %+v", got, b)
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	b := sampleBatchResp()
	pkt, err := AppendBatchResponse(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchResponse(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("round trip changed value:\n got %+v\nwant %+v", got, b)
	}
}

// A batch of one must be byte-identical to the legacy singleton frame: that
// is the singleton fast path AND the whole mixed-version story for a
// batching router talking to a pre-batching janusd.
func TestSingletonBatchIsLegacyFrame(t *testing.T) {
	req := Request{ID: 7, Key: "alice", Cost: 2, TraceID: 42}
	legacy, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := AppendBatchRequest(nil, BatchRequest{Entries: []Request{req}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy, batched) {
		t.Fatalf("singleton batch differs from legacy frame:\nlegacy  %x\nbatched %x", legacy, batched)
	}
	resp := Response{ID: 7, Allow: true, Status: StatusOK, TraceID: 42, ServerNanos: 99}
	legacyR := mustEncodeResponse(resp)
	batchedR, err := AppendBatchResponse(nil, BatchResponse{Entries: []Response{resp}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacyR, batchedR) {
		t.Fatalf("singleton batch response differs from legacy frame")
	}
}

// An old decoder (DecodeRequest, predating FlagBatched) receiving a batched
// frame must still parse entry 0 correctly — the batch section is trailing
// bytes it never reads. This is what keeps a mixed-version cluster correct:
// the old server answers entry 0, the rest time out and are retried.
func TestOldDecoderReadsEntryZeroOfBatch(t *testing.T) {
	b := sampleBatchReq()
	pkt, err := AppendBatchRequest(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(pkt)
	if err != nil {
		t.Fatalf("old decoder rejected batched frame: %v", err)
	}
	if got != b.Entries[0] {
		t.Fatalf("old decoder read %+v, want entry 0 %+v", got, b.Entries[0])
	}
	// Traced entry 0: the trace id sits between the key and the batch
	// section; both decoders must agree on its position.
	b.Entries[0].TraceID = 0xfeed
	pkt, err = AppendBatchRequest(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeRequest(pkt)
	if err != nil || got != b.Entries[0] {
		t.Fatalf("old decoder on traced batch: got %+v err %v, want %+v", got, err, b.Entries[0])
	}
}

func TestOldDecoderReadsEntryZeroOfBatchResponse(t *testing.T) {
	b := sampleBatchResp()
	pkt, err := AppendBatchResponse(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(pkt)
	if err != nil {
		t.Fatalf("old decoder rejected batched response: %v", err)
	}
	if got != b.Entries[0] {
		t.Fatalf("old decoder read %+v, want entry 0 %+v", got, b.Entries[0])
	}
}

// Legacy frames decode as a batch of one through the batch decoders, so a
// batching receiver needs exactly one decode path.
func TestLegacyFrameDecodesAsSingletonBatch(t *testing.T) {
	req := Request{ID: 9, Key: "alice", Cost: 1}
	pkt, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchRequest(pkt)
	if err != nil || len(got.Entries) != 1 || got.Entries[0] != req {
		t.Fatalf("got %+v err %v", got, err)
	}
	resp := Response{ID: 9, Allow: true, Status: StatusDefaultReply}
	gotR, err := DecodeBatchResponse(mustEncodeResponse(resp))
	if err != nil || len(gotR.Entries) != 1 || gotR.Entries[0] != resp {
		t.Fatalf("got %+v err %v", gotR, err)
	}
}

func TestBatchDecodeRejections(t *testing.T) {
	b := sampleBatchReq()
	pkt, err := AppendBatchRequest(nil, b)
	if err != nil {
		t.Fatal(err)
	}

	// Truncated at every prefix length inside the batch section: never a
	// panic, and (once past the header) always ErrTruncated or ErrBadChecksum.
	for cut := 0; cut < len(pkt); cut++ {
		if _, err := DecodeBatchRequest(pkt[:cut]); err == nil {
			t.Fatalf("truncated frame (%d/%d bytes) accepted", cut, len(pkt))
		}
	}

	// Trailing bytes after the final entry: entry count must be honored.
	junk := append(append([]byte{}, pkt...), 0xAA)
	reseal(junk)
	if _, err := DecodeBatchRequest(junk); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("trailing byte: err = %v, want ErrTrailingBytes", err)
	}

	// Duplicated entry: same ID twice in one frame.
	dup := sampleBatchReq()
	dup.Entries[2].ID = dup.Entries[1].ID
	if _, err := AppendBatchRequest(nil, dup); !errors.Is(err, ErrDuplicateEntry) {
		t.Fatalf("encoder accepted duplicate IDs: %v", err)
	}
	// Forge the same on the wire (encoder refuses, so patch the bytes):
	// entry 1's id field starts right after entry 0's payload + count.
	forged := append([]byte{}, pkt...)
	off := requestHeaderLen + len(b.Entries[0].Key) + batchCountLen
	binary.BigEndian.PutUint64(forged[off:], b.Entries[0].ID)
	reseal(forged)
	if _, err := DecodeBatchRequest(forged); !errors.Is(err, ErrDuplicateEntry) {
		t.Fatalf("decoder accepted duplicate IDs: %v", err)
	}

	// Oversized declared count.
	big := BatchRequest{Entries: make([]Request, MaxBatchEntries+1)}
	for i := range big.Entries {
		big.Entries[i] = Request{ID: uint64(i), Key: "k"}
	}
	if _, err := AppendBatchRequest(nil, big); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("encoder accepted %d entries: %v", len(big.Entries), err)
	}

	// Empty batch.
	if _, err := AppendBatchRequest(nil, BatchRequest{}); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("empty batch: %v", err)
	}
	if _, err := AppendBatchResponse(nil, BatchResponse{}); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("empty batch response: %v", err)
	}
}

func TestBatchResponseDecodeRejections(t *testing.T) {
	pkt, err := AppendBatchResponse(nil, sampleBatchResp())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(pkt); cut++ {
		if _, err := DecodeBatchResponse(pkt[:cut]); err == nil {
			t.Fatalf("truncated response (%d/%d bytes) accepted", cut, len(pkt))
		}
	}
	junk := append(append([]byte{}, pkt...), 0x01)
	reseal(junk)
	if _, err := DecodeBatchResponse(junk); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("trailing byte: err = %v, want ErrTrailingBytes", err)
	}
	dup := sampleBatchResp()
	dup.Entries[2].ID = dup.Entries[0].ID
	if _, err := AppendBatchResponse(nil, dup); !errors.Is(err, ErrDuplicateEntry) {
		t.Fatalf("encoder accepted duplicate response IDs: %v", err)
	}
}

// The batch append must compose with a non-empty dst, like the singleton
// encoders (janusd's worker reuses one buffer across replies).
func TestAppendBatchReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 512)
	b := sampleBatchReq()
	buf, err := AppendBatchRequest(buf[:0], b)
	if err != nil {
		t.Fatal(err)
	}
	first := append([]byte{}, buf...)
	buf, err = AppendBatchRequest(buf[:0], b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, buf) {
		t.Fatal("re-encode into reused buffer differs")
	}
}
