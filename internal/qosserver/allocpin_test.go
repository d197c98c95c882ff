package qosserver

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/admission"
	"repro/internal/bucket"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Alloc pinning: the janus-vet hotalloc analyzer proves statically that the
// annotated hot paths introduce no allocation SITES; these tests prove
// dynamically that the composed end-to-end paths perform no allocations PER
// OPERATION in steady state. Both must hold — the static check catches a
// regression at the line that introduces it, the pin catches whatever the
// static taxonomy cannot see (runtime map growth, escape-analysis changes
// across compiler versions).
//
// The budgets are the allocBudgets table below and are asserted exactly; a
// test failure here means either a hot-path regression (fix it) or a
// deliberate budget change (re-measure and update the table alongside the
// code).
//
// testing.AllocsPerRun runs the function once before measuring, so one-time
// costs — rule install on first sight of a key, wire-key interning, slice
// warm-up — land in the warm-up run and steady state is what gets measured,
// exactly as in a long-lived daemon.

// allocBudgets is allocs/op per pinned path. The comments give what each
// path cost before the zero-alloc work that hotalloc forced (sync.Map
// key boxing, hash.Hash32 construction + []byte key copies, per-decode key
// strings, per-response encode buffers) — the reason the pin exists — or
// that the path was born allocation-free and is pinned to stay so.
var allocBudgets = map[string]float64{
	"singleton_decode_decide_encode": 0, // was 4; 1 while a key change made the key's string
	"sojourn_observe":                0, // born at 0: runs per datagram after every response
	"singleton_decide_audited":       0, // born at 0: auditing is meant to run in production
	"codel_decide":                   0, // born at 0: runs per datagram on every worker loop
	"udp_intake":                     0, // was 9: the peer address and a packet copy per read, 6 in the client's exchange; 1 while a key change made the key's string
}

// residentKeyBytes is the heap one resident key may hold: its table entry
// (bucket, audit account and default-rule mark in one object) and its slot
// in the table's shard map. It was 232.8 B when the default-rule mark and
// the audit account lived in maps of their own, and 162.9 B while the bucket
// held a mutex, a float credit and a time.Time (130.9 B since it is one
// word beside its geometry).
const residentKeyBytes = 150

func pinBudget(t *testing.T, name string) float64 {
	t.Helper()
	budget, ok := allocBudgets[name]
	if !ok {
		t.Fatalf("allocBudgets has no budget for %q", name)
	}
	return budget
}

func skipIfInstrumented(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; alloc pins run uninstrumented")
	}
}

// newPinServer builds a server with a generous default rule so the pinned
// loop never exhausts credit mid-measurement.
func newPinServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{
		Addr:        "127.0.0.1:0",
		DefaultRule: bucket.Rule{RefillRate: 1e9, Capacity: 1e9, Credit: 1e9},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// pinKeys are the resident keys a pinned loop cycles through: the key
// changes on every operation, as it does under uniform draws, so a path
// that makes a string per key change shows. Three, not two: the FIFO hands
// datagrams to the waiting workers in turn, so with two workers and two
// keys each worker would see one recurring key.
var pinKeys = [3]string{"alloc-pin-a", "alloc-pin-b", "alloc-pin-c"}

// TestAllocPinSingleton pins the worker's admission path — decode the
// request frame (byte-key decoder), the worker's decision step (clock
// reads, the lookup by the key's bytes, the decision, latency record),
// encode the response frame into a reused buffer — at its recorded budget.
func TestAllocPinSingleton(t *testing.T) {
	skipIfInstrumented(t)
	budget := pinBudget(t, "singleton_decode_decide_encode")
	s := newPinServer(t)

	var pkts [len(pinKeys)][]byte
	for i, key := range pinKeys {
		var err error
		if pkts[i], err = wire.AppendRequest(nil, wire.Request{ID: 7, Key: key, Cost: 1}); err != nil {
			t.Fatalf("AppendRequest: %v", err)
		}
		s.Decide(wire.Request{Key: key, Cost: 1}) // resident before the loop
	}
	var req wire.Request
	out := make([]byte, 0, wire.MaxDatagram)
	var failure error
	n := 0

	got := testing.AllocsPerRun(200, func() {
		pkt := pkts[n%len(pkts)]
		n++
		key, err := wire.DecodeRequestKey(pkt, &req)
		if err != nil {
			failure = err
			return
		}
		out, err = wire.AppendResponse(out[:0], s.decideTimed(&req, key))
		if err != nil {
			failure = err
		}
	})
	if failure != nil {
		t.Fatalf("pinned loop failed: %v", failure)
	}
	if got != budget {
		t.Errorf("singleton decode→decideTimed→encode: %v allocs/op, budget %v", got, budget)
	}
}

// TestAllocPinSojournObserve pins the per-packet sojourn decomposition —
// four histogram records plus the rolling current-sojourn store — at zero:
// it runs once per datagram on the worker loop, after every response.
func TestAllocPinSojournObserve(t *testing.T) {
	skipIfInstrumented(t)
	budget := pinBudget(t, "sojourn_observe")
	s := newPinServer(t)

	var ns int64
	got := testing.AllocsPerRun(200, func() {
		ns += 4000
		s.observeSojourn(ns, ns+1000, ns+2000, ns+3000)
	})
	if got != budget {
		t.Errorf("observeSojourn: %v allocs/op, budget %v", got, budget)
	}
}

// TestAllocPinAuditedDecide pins the audited singleton decision: with
// Config.Audit enabled every admission additionally pays the ledger's
// sharded map read plus a lock-free float add, and that surcharge must be
// allocation-free too — auditing is meant to run in production.
func TestAllocPinAuditedDecide(t *testing.T) {
	skipIfInstrumented(t)
	budget := pinBudget(t, "singleton_decide_audited")
	s, err := New(Config{
		Addr:        "127.0.0.1:0",
		DefaultRule: bucket.Rule{RefillRate: 1e9, Capacity: 1e9, Credit: 1e9},
		Audit:       true,
		// Keep the background audit pass out of the measurement window:
		// AllocsPerRun counts process-wide allocations.
		AuditInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Close() })

	req := wire.Request{ID: 9, Key: "alloc-pin-audited", Cost: 1}
	var denied bool
	got := testing.AllocsPerRun(200, func() {
		if resp := s.Decide(req); !resp.Allow {
			denied = true
		}
	})
	if denied {
		t.Fatal("pinned loop hit the deny path; the pin measured the wrong path")
	}
	if got != budget {
		t.Errorf("audited Decide: %v allocs/op, budget %v", got, budget)
	}
}

// TestAllocPinCodelDecide pins the CoDel dequeue decision — one lock, the
// control-law step, and the degraded-response build when it sheds — at
// zero: it runs once per datagram on every worker loop.
func TestAllocPinCodelDecide(t *testing.T) {
	skipIfInstrumented(t)
	budget := pinBudget(t, "codel_decide")

	c := newCodel(DefaultCodelTarget, DefaultCodelInterval)
	req := wire.Request{ID: 1, Key: "alloc-pin-codel", Cost: 1}
	var ns int64
	var sheds int64
	got := testing.AllocsPerRun(200, func() {
		// Sustained above-target sojourn walks the entry arm once and the
		// inverse-sqrt cadence arm on most iterations; the shed branch
		// builds the degraded reply. All alloc-free.
		ns += int64(DefaultCodelInterval)
		if c.onDequeue(int64(5*DefaultCodelTarget), ns) && degradedReply(&req, false).Status == wire.StatusDegraded {
			sheds++
		}
	})
	if sheds == 0 {
		t.Fatal("controller never shed; the pin measured the wrong path")
	}
	if got != budget {
		t.Errorf("codel onDequeue+degradedReply: %v allocs/op, budget %v", got, budget)
	}
}

// TestAllocPinUDPIntake pins the whole datagram path of a live server —
// listen (read, pooled copy, FIFO), a worker (decode, decide, return the
// buffer, encode, send) — with a transport.Client alternating between
// resident keys as the peer, so the client's exchange is inside the
// measurement too.
func TestAllocPinUDPIntake(t *testing.T) {
	skipIfInstrumented(t)
	budget := pinBudget(t, "udp_intake")
	s := newPinServer(t)
	c, err := transport.Dial(s.Addr(), transport.Config{Timeout: time.Second, Retries: 1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	var failure error
	n := 0
	exchange := func() {
		resp, err := c.Do(wire.Request{Key: pinKeys[n%len(pinKeys)], Cost: 1})
		n++
		if err == nil && !resp.Allow {
			err = fmt.Errorf("denied: %+v", resp)
		}
		if err != nil {
			failure = err
		}
	}
	for range pinKeys {
		exchange() // every key resident before the measurement
	}
	got := testing.AllocsPerRun(200, exchange)
	if failure != nil {
		t.Fatalf("pinned exchange failed: %v", failure)
	}
	if got != budget {
		t.Errorf("UDP intake listen→FIFO→worker→send: %v allocs/op, budget %v", got, budget)
	}
}

// TestAllocPinResidentKeyBytes pins the footprint of a resident key:
// 50 000 default-rule keys decided with auditing on and no store, measured
// as the live-heap growth per key after a GC. The keys are named before the
// first reading, so only what the server holds for them counts. An entry
// itself must stay within the 96 B size class.
func TestAllocPinResidentKeyBytes(t *testing.T) {
	if n := unsafe.Sizeof(admission.Entry{}); n > 96 {
		t.Errorf("an entry is %d B, over the 96 B size class", n)
	}
	skipIfInstrumented(t)
	const keys = 50_000
	s, err := New(Config{
		Addr:          "127.0.0.1:0",
		DefaultRule:   bucket.Rule{RefillRate: 1e9, Capacity: 1e9, Credit: 1e9},
		Audit:         true,
		AuditInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	reqs := make([]wire.Request, keys)
	for i := range reqs {
		reqs[i] = wire.Request{Key: fmt.Sprintf("resident-%d", i), Cost: 1}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, req := range reqs {
		if !s.Decide(req).Allow {
			t.Fatalf("%s denied", req.Key)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(reqs)
	if n := s.TableLen(); n != keys {
		t.Fatalf("TableLen = %d, want %d", n, keys)
	}
	perKey := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / keys
	t.Logf("resident key: %.1f B (budget %d B)", perKey, residentKeyBytes)
	if perKey > residentKeyBytes {
		t.Errorf("a resident key holds %.1f B of heap, budget %d B", perKey, residentKeyBytes)
	}
}
