// Package events is the per-daemon flight recorder: a fixed-size lock-free
// ring of control-plane state transitions (epoch swaps, bucket handoffs,
// failpoint fires, default-reply mode flips, audit overspends).
//
// The data plane already has metrics (rates and distributions) and traces
// (per-request latency decomposition); what neither captures is the ORDER of
// the rare transitions that explain a bad five seconds — "the view swapped,
// the handoff landed, THEN the audit tripped". The flight recorder keeps the
// last few thousand such transitions with sequence numbers and wall-clock
// timestamps, cheap enough to record unconditionally, and dumps them three
// ways: the /debug/events endpoint, a SIGQUIT handler in every daemon, and
// the chaos harness on invariant failure — turning a red chaos run from
// "re-run with printf" into one artifact.
//
// Recording follows the trace.Ring idiom: writers claim a slot with one
// atomic add and publish with one atomic pointer store, so a transition on a
// semi-hot path (a handoff storm, a firing failpoint) never
// serializes the goroutines reporting it. Each Record allocates one Event —
// transitions are rare by construction, so this stays off the zero-alloc
// admission paths.
package events

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Event is one recorded state transition.
type Event struct {
	// Seq is the claim order within this ring — a total order over the
	// daemon's transitions even when timestamps collide.
	Seq uint64 `json:"seq"`
	// Nanos is the wall-clock time of the transition in Unix nanoseconds.
	Nanos int64 `json:"ns"`
	// Component names the subsystem that recorded the transition
	// ("router", "qosserver", "failpoint", "audit", ...).
	Component string `json:"component"`
	// Kind names the transition ("epoch-swap", "handoff-apply",
	// "failpoint-fire", "default-reply-enter", ...).
	Kind string `json:"kind"`
	// Key is the affected entity: a bucket key, a backend address, a
	// failpoint name. Empty when the transition is daemon-wide.
	Key string `json:"key,omitempty"`
	// Value is a kind-specific number: the new epoch, a handoff entry
	// count, an overspend amount.
	Value float64 `json:"value,omitempty"`
	// Detail is optional preformatted context, filled on cold paths only.
	Detail string `json:"detail,omitempty"`
}

// Ring is a fixed-size lock-free flight-recorder ring.
type Ring struct {
	slots []atomic.Pointer[Event]
	mask  uint64
	next  atomic.Uint64
}

// NewRing returns a ring holding the last n events (n rounded up to a power
// of two; minimum 16).
func NewRing(n int) *Ring {
	size := 16
	for size < n {
		size <<= 1
	}
	return &Ring{slots: make([]atomic.Pointer[Event], size), mask: uint64(size - 1)}
}

// Record publishes one transition, evicting the oldest when full. The
// timestamp is taken here so call sites stay one-liners.
func (r *Ring) Record(component, kind, key string, value float64) {
	r.put(&Event{Nanos: time.Now().UnixNano(), Component: component, Kind: kind, Key: key, Value: value})
}

// Recordf is Record plus a formatted detail string (cold paths only — the
// format call allocates).
func (r *Ring) Recordf(component, kind, key string, value float64, format string, args ...any) {
	r.put(&Event{
		Nanos: time.Now().UnixNano(), Component: component, Kind: kind,
		Key: key, Value: value, Detail: fmt.Sprintf(format, args...),
	})
}

func (r *Ring) put(e *Event) {
	e.Seq = r.next.Add(1) - 1
	r.slots[e.Seq&r.mask].Store(e)
}

// Recorded reports how many events have ever been recorded (including those
// already evicted).
func (r *Ring) Recorded() uint64 { return r.next.Load() }

// Snapshot returns the buffered events ordered oldest → newest. Concurrent
// Records may or may not be included; an event overwritten mid-snapshot is
// simply represented by its replacement.
func (r *Ring) Snapshot() []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dump is the JSON document served at /debug/events and written on SIGQUIT.
type Dump struct {
	Service  string  `json:"service,omitempty"`
	Recorded uint64  `json:"recorded"`
	Dropped  uint64  `json:"dropped"`
	Events   []Event `json:"events"`
}

// Dump captures the ring for JSON exposition.
func (r *Ring) Dump(service string) Dump {
	evs := r.Snapshot()
	rec := r.Recorded()
	return Dump{Service: service, Recorded: rec, Dropped: rec - uint64(len(evs)), Events: evs}
}

// WriteTo writes the dump as indented JSON — the SIGQUIT text form.
func (r *Ring) WriteTo(w io.Writer, service string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Dump(service))
}

// Default is the process-global ring every daemon records into, mirroring
// the failpoint registry's process-global shape: subsystems deep in the
// stack (the failpoint evaluator, the audit ledger) can report transitions
// without per-daemon plumbing, and debugz mounts /debug/events
// unconditionally.
var Default = NewRing(4096)

// Record publishes a transition to the process-global ring.
func Record(component, kind, key string, value float64) {
	Default.Record(component, kind, key, value)
}

// Recordf publishes a transition with formatted detail to the process-global
// ring.
func Recordf(component, kind, key string, value float64, format string, args ...any) {
	Default.Recordf(component, kind, key, value, format, args...)
}
