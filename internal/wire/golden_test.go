package wire

import (
	"encoding/hex"
	"testing"
)

// TestFrameGolden pins the datagram layout: changing these bytes changes the
// protocol every router and QoS server speaks, so a mixed-version cluster
// would stop understanding itself. Each vector is the header (magic,
// version, type, flags, id, CRC32 of the rest), then the type's payload;
// the golden bytes also decode to the value they came from.
func TestFrameGolden(t *testing.T) {
	const trace = 0xabcdef0123456789
	for _, tc := range []struct {
		name string
		req  *Request
		resp *Response
		hex  string
	}{
		{name: "plain request", req: &Request{ID: 7, Key: "user-42", Cost: 1},
			hex: "4a010000" + "0000000000000007" + "580c0312" + "000003e8" + "0007" + "757365722d3432"},
		{name: "traced request", req: &Request{ID: 0x0102030405060708, Key: "k", Cost: 2.5, TraceID: trace},
			hex: "4a010001" + "0102030405060708" + "c881924e" + "000009c4" + "0001" + "6b" + "abcdef0123456789"},
		{name: "plain response", resp: &Response{ID: 7, Allow: true},
			hex: "4a010100" + "0000000000000007" + "58c223be" + "01" + "00"},
		{name: "traced response with server nanos", resp: &Response{ID: 9, Status: StatusDefaultRule, TraceID: trace, ServerNanos: 1500},
			hex: "4a010101" + "0000000000000009" + "84392b4c" + "00" + "01" + "abcdef0123456789" + "000005dc"},
	} {
		golden, _ := hex.DecodeString(tc.hex)
		var b []byte
		var err error
		if tc.req != nil {
			b, err = EncodeRequest(*tc.req)
			if got, derr := DecodeRequest(golden); derr != nil || got != *tc.req {
				t.Errorf("%s: decoded %+v, %v", tc.name, got, derr)
			}
		} else {
			b, err = EncodeResponse(*tc.resp)
			if got, derr := DecodeResponse(golden); derr != nil || got != *tc.resp {
				t.Errorf("%s: decoded %+v, %v", tc.name, got, derr)
			}
		}
		if got := hex.EncodeToString(b); err != nil || got != tc.hex {
			t.Errorf("%s:\n got %s (%v)\nwant %s", tc.name, got, err, tc.hex)
		}
	}
}
