package qosserver

import (
	"encoding/binary"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/wire"
)

// Many raw senders keep requests in flight at once, one per datagram, and
// every request is decided exactly once. The "many" bucket holds exactly one
// credit per request, so a request decided twice would show as a denial or
// an extra decision.
func TestWorkerAnswersConcurrentRawSenders(t *testing.T) {
	const (
		senders = 8
		frames  = 320
		window  = 16 // requests one sender keeps in flight
		many    = senders * frames
	)
	db := newDB(t, bucket.Rule{Key: "many", RefillRate: 0, Capacity: many, Credit: many})
	// A target no burst reaches keeps CoDel from shedding: a degraded reply
	// answers a request without deciding it.
	s := newServer(t, Config{Store: db, CodelTarget: time.Minute})

	var wg sync.WaitGroup
	for snd := 0; snd < senders; snd++ {
		conn := mustRawUDP(t, s.Addr())
		wg.Add(1)
		go func(snd int) {
			defer wg.Done()
			slots := make(chan struct{}, window)
			done := make(chan struct{})
			go func() {
				defer close(done)
				seen := make(map[uint64]int, frames)
				buf := make([]byte, wire.MaxDatagram)
				conn.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				for len(seen) < frames {
					n, err := conn.conn.Read(buf)
					if err != nil {
						t.Errorf("sender %d: %d of %d requests answered: %v", snd, len(seen), frames, err)
						return
					}
					r, err := wire.DecodeResponse(buf[:n])
					if err != nil {
						t.Errorf("sender %d: undecodable reply: %v", snd, err)
						return
					}
					if r.ID>>32 != uint64(snd) || !r.Allow {
						t.Errorf("sender %d: reply %+v, want an allow for one of its own IDs", snd, r)
					}
					if seen[r.ID]++; seen[r.ID] > 1 {
						t.Errorf("sender %d: request %d answered twice", snd, r.ID)
					}
					select {
					case <-slots:
					default:
					}
				}
			}()
			var out []byte
			for f := 0; f < frames; f++ {
				select {
				case slots <- struct{}{}:
				case <-done:
					return
				}
				var err error
				if out, err = wire.AppendRequest(out[:0], wire.Request{ID: uint64(snd)<<32 | uint64(f+1), Key: "many", Cost: 1}); err != nil {
					t.Error(err)
					return
				}
				if _, err := conn.Write(out); err != nil {
					t.Error(err)
					return
				}
			}
			<-done
		}(snd)
	}
	wg.Wait()
	if st := s.Stats(); st.Decisions != many || st.Allowed != many {
		t.Fatalf("decisions = %d, allowed = %d; want %d each (each request decided once)", st.Decisions, st.Allowed, many)
	}
}

// A frame from a sender that still batched — a singleton with the retired
// flag bit 1<<1 set and a second entry appended after its payload — is
// answered for entry 0 only, as a janusd that predates the batch frame
// answered it.
func TestWorkerAnswersRetiredBitFrameForEntryZero(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "alice", RefillRate: 0, Capacity: 2, Credit: 2})
	s := newServer(t, Config{Store: db})

	pkt, err := wire.EncodeRequest(wire.Request{ID: 1, Key: "alice", Cost: 1})
	if err != nil {
		t.Fatal(err)
	}
	pkt[3] |= 1 << 1
	// Extra-entry count 1; entry id 2, entry flags, cost 1.000, key "alice".
	pkt = append(pkt, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0x03, 0xe8, 0, 5, 'a', 'l', 'i', 'c', 'e')
	binary.BigEndian.PutUint32(pkt[12:], crc32.ChecksumIEEE(pkt[16:]))

	conn := mustRawUDP(t, s.Addr())
	if _, err := conn.Write(pkt); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, wire.MaxDatagram)
	conn.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if want := (wire.Response{ID: 1, Allow: true, Status: wire.StatusOK}); resp != want {
		t.Fatalf("reply %+v, want %+v", resp, want)
	}
	conn.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if n, err := conn.conn.Read(buf); err == nil {
		t.Fatalf("second reply of %d bytes; entry 1 must go unanswered", n)
	}
	if st := s.Stats(); st.Decisions != 1 {
		t.Fatalf("decisions = %d, want 1 (entry 0 only)", st.Decisions)
	}
}
