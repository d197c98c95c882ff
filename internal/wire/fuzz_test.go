package wire

import (
	"bytes"
	"math"
	"net/url"
	"strings"
	"testing"
)

// Native fuzz targets; `go test` runs the seed corpus, `go test -fuzz=.`
// explores. Properties: decoders never panic, and any datagram a decoder
// accepts re-encodes to an equivalent value.

func FuzzDecodeRequest(f *testing.F) {
	seed, _ := EncodeRequest(Request{ID: 7, Key: "alice", Cost: 1})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{Magic})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		// Accepted datagrams round-trip.
		re, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("re-encode of accepted request failed: %v", err)
		}
		back, err := DecodeRequest(re)
		if err != nil || back != req {
			t.Fatalf("round trip changed value: %+v -> %+v (%v)", req, back, err)
		}
	})
}

// FuzzBatchFrameDecode exercises the batched decoders (which subsume the
// legacy singleton format): no panics; an accepted frame declares a sane
// entry count (1..MaxBatchEntries, honored exactly) with unique entry IDs;
// and accepted batches round-trip through the encoder unchanged.
func FuzzBatchFrameDecode(f *testing.F) {
	reqSeed, _ := AppendBatchRequest(nil, BatchRequest{Entries: []Request{
		{ID: 1, Key: "alice", Cost: 1},
		{ID: 2, Key: "bob", Cost: 2, TraceID: 77},
		{ID: 3, Key: "carol", Cost: 0.5},
	}})
	respSeed, _ := AppendBatchResponse(nil, BatchResponse{Entries: []Response{
		{ID: 1, Allow: true, Status: StatusOK},
		{ID: 2, Allow: false, Status: StatusDefaultRule, TraceID: 77, ServerNanos: 55},
	}})
	legacySeed, _ := EncodeRequest(Request{ID: 9, Key: "dave", Cost: 1})
	f.Add(reqSeed)
	f.Add(respSeed)
	f.Add(legacySeed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 96))
	f.Fuzz(func(t *testing.T, data []byte) {
		if br, err := DecodeBatchRequest(data); err == nil {
			checkAcceptedBatchRequest(t, br)
		}
		if bresp, err := DecodeBatchResponse(data); err == nil {
			checkAcceptedBatchResponse(t, bresp)
		}
	})
}

func checkAcceptedBatchRequest(t *testing.T, br BatchRequest) {
	t.Helper()
	if len(br.Entries) == 0 || len(br.Entries) > MaxBatchEntries {
		t.Fatalf("accepted batch with %d entries", len(br.Entries))
	}
	seen := make(map[uint64]bool, len(br.Entries))
	for _, e := range br.Entries {
		if seen[e.ID] {
			t.Fatalf("accepted batch with duplicate entry id %d", e.ID)
		}
		seen[e.ID] = true
	}
	re, err := AppendBatchRequest(nil, br)
	if err != nil {
		t.Fatalf("re-encode of accepted batch failed: %v", err)
	}
	back, err := DecodeBatchRequest(re)
	if err != nil || len(back.Entries) != len(br.Entries) {
		t.Fatalf("round trip changed entry count: %d -> %d (%v)", len(br.Entries), len(back.Entries), err)
	}
	for i := range back.Entries {
		if back.Entries[i] != br.Entries[i] {
			t.Fatalf("round trip changed entry %d: %+v -> %+v", i, br.Entries[i], back.Entries[i])
		}
	}
}

func checkAcceptedBatchResponse(t *testing.T, br BatchResponse) {
	t.Helper()
	if len(br.Entries) == 0 || len(br.Entries) > MaxBatchEntries {
		t.Fatalf("accepted batch with %d entries", len(br.Entries))
	}
	re, err := AppendBatchResponse(nil, br)
	if err != nil {
		t.Fatalf("re-encode of accepted batch failed: %v", err)
	}
	back, err := DecodeBatchResponse(re)
	if err != nil || len(back.Entries) != len(br.Entries) {
		t.Fatalf("round trip changed entry count: %d -> %d (%v)", len(br.Entries), len(back.Entries), err)
	}
	for i := range back.Entries {
		if back.Entries[i] != br.Entries[i] {
			t.Fatalf("round trip changed entry %d: %+v -> %+v", i, br.Entries[i], back.Entries[i])
		}
	}
}

// FuzzAppendHTTPQuery: the appended request-URI is byte-identical to the
// url.Values rendering for every key and cost.
func FuzzAppendHTTPQuery(f *testing.F) {
	f.Add("user-42", 1.0)
	f.Add("a b&c=d%e+f/g", 2.5)
	f.Add("\xff\xfe\x00", 0.0)
	f.Add(strings.Repeat("k ", MaxKeyLen/2), 1e21)
	f.Add("", math.Inf(1))
	f.Fuzz(func(t *testing.T, key string, cost float64) {
		checkHTTPQuery(t, key, cost)
	})
}

// FuzzParseHTTPRawQuery: on any raw query, ParseHTTPRawQuery returns what
// ParseHTTPQuery returns after url.ParseQuery, the pair the router's net/http
// handler used.
func FuzzParseHTTPRawQuery(f *testing.F) {
	for _, c := range httpQueries {
		f.Add(c.query)
	}
	f.Add("key=%41%2b+&cost=1e-3&key=x")
	f.Fuzz(func(t *testing.T, query string) {
		values, _ := url.ParseQuery(query)
		want, wantErr := ParseHTTPQuery(values)
		got, err := ParseHTTPRawQuery([]byte(query))
		if (err == nil) != (wantErr == nil) || got != want {
			t.Fatalf("ParseHTTPRawQuery(%q) = %+v, %v; ParseHTTPQuery gives %+v, %v", query, got, err, want, wantErr)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	f.Add(mustEncodeResponse(Response{ID: 9, Allow: true, Status: StatusOK}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{Magic}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponse(data)
		if err != nil {
			return
		}
		back, err := DecodeResponse(mustEncodeResponse(resp))
		if err != nil || back != resp {
			t.Fatalf("round trip changed value: %+v -> %+v (%v)", resp, back, err)
		}
	})
}
