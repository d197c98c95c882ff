package qosserver

import (
	"bytes"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"repro/internal/bucket"
)

// peerGolden pins the peer frame layout: changing these bytes changes the
// protocol every HA master, slave and handoff peer speaks.
var peerGolden = []struct {
	name string
	f    peerFrame
	hex  string
}{
	{"pull", peerFrame{Type: peerPull}, "00000002" + "00" + "00"},
	{"ack", peerFrame{Type: peerAck}, "00000002" + "03" + "00"},
	{"snapshot with a plain and a default entry",
		peerFrame{Type: peerSnapshot, Entries: []peerEntry{
			{Rule: bucket.Rule{Key: "a", RefillRate: 10, Capacity: 100, Credit: 50}},
			{Rule: bucket.Rule{Key: "guest", RefillRate: 1, Capacity: 5, Credit: 5}, Default: true},
		}},
		"0000003c" + "01" + "02" +
			"01" + "61" + "4024000000000000" + "4059000000000000" + "4049000000000000" + "00" +
			"05" + "6775657374" + "3ff0000000000000" + "4014000000000000" + "4014000000000000" + "01"},
	{"handoff",
		peerFrame{Type: peerHandoff, Entries: []peerEntry{
			{Rule: bucket.Rule{Key: "b", RefillRate: 2, Capacity: 20, Credit: 0}},
		}},
		"0000001d" + "02" + "01" +
			"01" + "62" + "4000000000000000" + "4034000000000000" + "0000000000000000" + "00"},
}

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func zeros(n int) string { return strings.Repeat("00", n) }

func TestPeerFrameGolden(t *testing.T) {
	for _, tc := range peerGolden {
		if got := hex.EncodeToString(appendPeerFrame(nil, &tc.f)); got != tc.hex {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.hex)
		}
		got, err := readPeerFrame(bytes.NewReader(mustHex(t, tc.hex)))
		if err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
			continue
		}
		if re := hex.EncodeToString(appendPeerFrame(nil, &got)); re != tc.hex {
			t.Errorf("%s: decoded frame re-encodes to %s", tc.name, re)
		}
	}
}

func TestPeerFrameRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name string
		hex  string
	}{
		{"zero length", "00000000"},
		{"length above the cap", "7fffffff00"},
		{"count beyond the bytes", "00000003" + "01" + "05" + "00"},
		{"non-minimal count", "00000003" + "00" + "8000"},
		{"key past the end", "0000001d" + "02" + "01" + "40" + "6b" + zeros(24) + "00"},
		{"key over MaxKeyLen", "0000001f" + "02" + "01" + "808004" + zeros(26)},
		{"entry past the end", "0000001c" + "02" + "01" + "02" + "6b6b" + zeros(23)},
		{"default byte 2", "0000001c" + "01" + "01" + "00" + zeros(24) + "02"},
		{"unknown type", "00000002" + "04" + "00"},
		{"trailing bytes", "00000003" + "00" + "00" + "00"},
	} {
		_, err := readPeerFrame(bytes.NewReader(mustHex(t, tc.hex)))
		if !errors.Is(err, errPeerFrame) {
			t.Errorf("%s: err = %v, want a malformed-frame error", tc.name, err)
		}
	}
}
