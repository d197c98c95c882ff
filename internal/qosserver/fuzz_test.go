package qosserver

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/bucket"
)

// FuzzHAFrameDecode feeds arbitrary bytes through the frame reader the HA
// listener and handoff receiver use, then applies any decoded entries to a
// live server. Four properties must hold for every input: reading never
// panics; it never allocates more than a small multiple of the bytes that
// arrived, whatever the length prefix claims; a frame that decodes
// re-encodes to exactly the bytes it was read from; and no applied entry
// leaves a bucket whose credit exceeds its capacity — the leaky-bucket
// invariant a corrupt or malicious replication peer must not be able to
// break.
func FuzzHAFrameDecode(f *testing.F) {
	now := time.Unix(1700000000, 0)
	srv, err := New(Config{
		Addr:    "127.0.0.1:0",
		Workers: 1,
		Clock:   func() time.Time { return now },
	})
	if err != nil {
		f.Fatalf("start server: %v", err)
	}
	f.Cleanup(func() { _ = srv.Close() })

	for _, tc := range peerGolden {
		f.Add(mustHex(f, tc.hex))
	}
	// Hostile seeds: a length prefix of 2³²−1, a count larger than the
	// bytes, a key running past the end, a default byte of 2, and a frame
	// whose rule violates the bucket invariants.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, peerSnapshot, 0})
	f.Add(mustHex(f, "00000003"+"01"+"05"+"00"))
	f.Add(mustHex(f, "0000001d"+"02"+"01"+"40"+"6b"+zeros(24)+"00"))
	f.Add(mustHex(f, "0000001c"+"01"+"01"+"00"+zeros(24)+"02"))
	f.Add(appendPeerFrame(nil, &peerFrame{Type: peerHandoff, Entries: []peerEntry{
		{Rule: bucket.Rule{Key: "evil", RefillRate: -1, Capacity: -100, Credit: 1e18}},
	}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// TotalAlloc counts every goroutine's allocations, which can only
		// add to the decoder's; the decoder allocates the same on every read
		// of the same bytes, so the least of three reads is its own.
		var frame peerFrame
		var err error
		grew := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			frame, err = readPeerFrame(bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		// An entry is 48 bytes per 26 or more frame bytes, its key a copy;
		// the constant covers the reader's own buffer growth.
		if grew > 16*uint64(len(data))+16<<10 {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return // rejecting a corrupt frame is the correct outcome
		}
		n := 4 + int(binary.BigEndian.Uint32(data))
		if got := appendPeerFrame(nil, &frame); !bytes.Equal(got, data[:n]) {
			t.Fatalf("re-encoded %x, read %x", got, data[:n])
		}
		entries := frame.Entries
		if len(entries) > 1024 {
			entries = entries[:1024]
		}
		srv.applyHandoff(entries)
		probe := now.Add(time.Hour) // force a refill advance as well
		for _, e := range entries {
			b := srv.adm.Get(e.Rule.Key)
			if b == nil {
				continue
			}
			credit, capacity := b.Credit(probe), b.Capacity()
			if math.IsNaN(credit) || credit > capacity {
				t.Fatalf("entry %+v installed bucket with credit %v > capacity %v",
					e.Rule, credit, capacity)
			}
		}
		// Reset so state cannot accumulate across iterations.
		for _, e := range entries {
			srv.adm.Delete(e.Rule.Key)
		}
	})
}
