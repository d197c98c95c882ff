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
	seed, _ := encodeRequest(Request{ID: 7, Key: "alice", Cost: 1})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{Magic})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Add(retiredBitFrame(f, Request{ID: 9, Key: "dave", Cost: 1, TraceID: 77}))
	f.Add(leaseAskFrame)
	f.Add(leaseRenewTracedFrame)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		// The byte-key decoder agrees with the string one on every input.
		var fields Request
		key, keyErr := DecodeRequestKey(data, &fields)
		if keyErr != err {
			t.Fatalf("DecodeRequestKey error %v, DecodeRequestReuse error %v", keyErr, err)
		}
		if err != nil {
			return
		}
		if fields.Key = req.Key; fields != req || string(key) != req.Key {
			t.Fatalf("DecodeRequestKey = %+v, key %q; DecodeRequestReuse = %+v", fields, key, req)
		}
		// Accepted datagrams round-trip.
		re, err := encodeRequest(req)
		if err != nil {
			t.Fatalf("re-encode of accepted request failed: %v", err)
		}
		back, err := decodeRequest(re)
		if err != nil || back != req {
			t.Fatalf("round trip changed value: %+v -> %+v (%v)", req, back, err)
		}
	})
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
		got, err := parseRaw(t, query)
		if (err == nil) != (wantErr == nil) || got != want || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ParseHTTPRawQuery(%q) = %+v, %v; ParseHTTPQuery gives %+v, %v", query, got, err, want, wantErr)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	f.Add(mustEncodeResponse(Response{ID: 9, Allow: true, Status: StatusOK}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{Magic}, 32))
	f.Add(leaseGrantFrame)
	f.Add(leaseRevokeTracedFrame)
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
