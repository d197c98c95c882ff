package qosserver

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
	"time"

	"repro/internal/bucket"
)

// encodeFrame gob-encodes a frame the way the HA and handoff peers do, for
// seeding the fuzz corpus with well-formed inputs.
func encodeFrame(t *testing.F, f haFrame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&f); err != nil {
		t.Fatalf("encode seed frame: %v", err)
	}
	return buf.Bytes()
}

// FuzzHAFrameDecode feeds arbitrary bytes through the same gob decode path
// the HA listener and handoff receiver use, then applies any decoded
// entries to a live server. Two properties must hold for every input:
// decoding never panics, and no applied entry can leave a bucket whose
// credit exceeds its capacity — the leaky-bucket invariant a corrupt or
// malicious replication peer must not be able to break.
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

	f.Add(encodeFrame(f, haFrame{Type: haPull}))
	f.Add(encodeFrame(f, haFrame{Type: haAck}))
	f.Add(encodeFrame(f, haFrame{Type: haSnapshot, Entries: []haEntry{
		{Rule: bucket.Rule{Key: "tenant-a", RefillRate: 10, Capacity: 100, Credit: 50}},
		{Rule: bucket.Rule{Key: "guest", RefillRate: 1, Capacity: 5, Credit: 5}, Default: true},
	}}))
	f.Add(encodeFrame(f, haFrame{Type: haHandoff, Entries: []haEntry{
		{Rule: bucket.Rule{Key: "tenant-b", RefillRate: 2, Capacity: 20, Credit: 0}},
	}}))
	// Hostile seeds: truncated gob, junk, and a frame whose rule violates
	// the bucket invariants.
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	f.Add(encodeFrame(f, haFrame{Type: haHandoff, Entries: []haEntry{
		{Rule: bucket.Rule{Key: "evil", RefillRate: -1, Capacity: -100, Credit: 1e18}},
	}})[:8])

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			t.Skip("oversized input")
		}
		var frame haFrame
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&frame); err != nil {
			return // rejecting a corrupt frame is the correct outcome
		}
		entries := frame.Entries
		if len(entries) > 1024 {
			entries = entries[:1024]
		}
		srv.applyHandoff(entries)
		probe := now.Add(time.Hour) // force a refill advance as well
		for _, e := range entries {
			b := srv.table.Get(e.Rule.Key)
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
			srv.table.Delete(e.Rule.Key)
		}
	})
}
