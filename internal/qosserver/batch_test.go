package qosserver

import (
	"sync"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/wire"
)

// One batched datagram in, one batched datagram out: the worker decodes the
// whole frame, evaluates every entry in a single pass, and the reply carries
// a verdict for every entry (IDs echoed, order preserved). Then many batched
// frames from concurrent senders are in flight at once, and every entry is
// decided exactly once.
func TestWorkerAnswersBatchedDatagram(t *testing.T) {
	const (
		senders = 8
		frames  = 20
		entries = 16
		many    = senders * frames * entries
	)
	db := newDB(t,
		bucket.Rule{Key: "alice", RefillRate: 0, Capacity: 2, Credit: 2},
		bucket.Rule{Key: "many", RefillRate: 0, Capacity: many, Credit: many},
	)
	s := newServer(t, Config{Store: db})

	breq := wire.BatchRequest{Entries: []wire.Request{
		{ID: 1, Key: "alice", Cost: 1},
		{ID: 2, Key: "alice", Cost: 1},
		{ID: 3, Key: "alice", Cost: 1}, // bucket exhausted: must be denied
	}}
	pkt, err := wire.AppendBatchRequest(nil, breq)
	if err != nil {
		t.Fatal(err)
	}
	conn := mustRawUDP(t, s.Addr())
	if _, err := conn.Write(pkt); err != nil {
		t.Fatal(err)
	}
	conn.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, wire.MaxDatagram)
	n, err := conn.conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	bresp, err := wire.DecodeBatchResponse(buf[:n])
	if err != nil {
		t.Fatalf("reply is not a batch frame: %v", err)
	}
	if len(bresp.Entries) != 3 {
		t.Fatalf("reply has %d entries, want 3", len(bresp.Entries))
	}
	for i, resp := range bresp.Entries {
		if resp.ID != breq.Entries[i].ID {
			t.Fatalf("entry %d: ID %d, want %d", i, resp.ID, breq.Entries[i].ID)
		}
	}
	if !bresp.Entries[0].Allow || !bresp.Entries[1].Allow || bresp.Entries[2].Allow {
		t.Fatalf("verdicts = %v %v %v, want allow/allow/deny",
			bresp.Entries[0].Allow, bresp.Entries[1].Allow, bresp.Entries[2].Allow)
	}
	if st := s.Stats(); st.Decisions != 3 {
		t.Fatalf("decisions = %d, want 3 (one per batch entry)", st.Decisions)
	}

	// Each sender puts all its frames on the wire before reading a reply.
	// The "many" bucket holds exactly one credit per entry, so an entry
	// decided twice would show as a denial or an extra decision.
	var wg sync.WaitGroup
	for snd := 0; snd < senders; snd++ {
		conn := mustRawUDP(t, s.Addr())
		wg.Add(1)
		go func(snd int) {
			defer wg.Done()
			var out []byte
			for f := 0; f < frames; f++ {
				var br wire.BatchRequest
				for e := 0; e < entries; e++ {
					br.Entries = append(br.Entries, wire.Request{ID: uint64(snd)<<32 | uint64(f*entries+e+1), Key: "many", Cost: 1})
				}
				var err error
				if out, err = wire.AppendBatchRequest(out[:0], br); err != nil {
					t.Error(err)
					return
				}
				if _, err := conn.Write(out); err != nil {
					t.Error(err)
					return
				}
			}
			seen := make(map[uint64]int)
			buf := make([]byte, wire.MaxDatagram)
			conn.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			for len(seen) < frames*entries {
				n, err := conn.conn.Read(buf)
				if err != nil {
					t.Errorf("sender %d: %d of %d entries answered: %v", snd, len(seen), frames*entries, err)
					return
				}
				bresp, err := wire.DecodeBatchResponse(buf[:n])
				if err != nil || len(bresp.Entries) != entries {
					t.Errorf("sender %d: reply of %d entries, err %v; want %d", snd, len(bresp.Entries), err, entries)
					return
				}
				for _, r := range bresp.Entries {
					if r.ID>>32 != uint64(snd) || !r.Allow {
						t.Errorf("sender %d: reply %+v, want an allow for one of its own IDs", snd, r)
					}
					if seen[r.ID]++; seen[r.ID] > 1 {
						t.Errorf("sender %d: entry %d answered twice", snd, r.ID)
					}
				}
			}
		}(snd)
	}
	wg.Wait()
	if st := s.Stats(); st.Decisions != 3+many || st.Allowed != 2+many {
		t.Fatalf("decisions = %d, allowed = %d; want %d, %d (each entry decided once)", st.Decisions, st.Allowed, 3+many, 2+many)
	}
}
