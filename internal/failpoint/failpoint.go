// Package failpoint is a registry of named fault-injection sites with zero
// overhead while disarmed.
//
// The paper's availability story (§II-B, §III-C) rests on mechanisms that
// only misbehave under partial failure: the router's 100 µs × 5 retry with a
// default reply on exhaustion, master/slave replication and failover, and
// live bucket handoff during membership changes. Failpoints let the chaos
// suite (and an operator at /debug/failpoints) inject packet loss, latency,
// errors, duplication, peer partitions, and panics at the exact seams where
// those mechanisms live — deterministically, under a seed — without a packet
// filter or a patched kernel.
//
// # Code sites
//
// A site registers once, at package init, with a literal name:
//
//	var fpSend = failpoint.New("transport/client/send")
//
// and gates the injected behaviour on the hot path:
//
//	if fpSend.Armed() {                       // one atomic load when disarmed
//		switch o := fpSend.EvalPeer(addr); o.Kind {
//		case failpoint.Drop, failpoint.Partition:
//			return nil // pretend the datagram was sent
//		case failpoint.Delay:
//			o.Sleep()
//		case failpoint.Error:
//			return o.Err
//		}
//	}
//
// Armed() compiles to a single atomic pointer load and a nil comparison
// (BenchmarkDisarmedGate measures it), so sites may sit on the hottest paths
// in the system. New panics unless the name has exactly one code site and
// follows the component/…/event naming convention.
//
// # Arming
//
// Failpoints are armed three ways, all sharing the spec syntax of parseAction:
//
//   - the JANUS_FAILPOINTS environment variable, read at process init
//     ("name=drop(p=0.2);other=delay(2ms)") — specs for names whose site has
//     not registered yet are held pending and applied at registration, so
//     env arming works regardless of package-init order;
//   - the programmatic API (Arm, Disarm, DisarmAll) — used by in-process
//     chaos tests;
//   - the /debug/failpoints HTTP endpoint (Handler), mounted by every
//     daemon's debugz mux — used to inject faults into a live process.
//
// Probabilistic actions draw from a seeded splitmix64 sequence, never from
// the global RNG, so a chaos run with a fixed seed sees a reproducible
// fire/skip sequence.
package failpoint

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
)

// Kind is the behaviour an armed failpoint injects.
type Kind uint8

// Failpoint action kinds.
const (
	// Off is the disarmed state (and the zero Outcome).
	Off Kind = iota
	// Drop silently discards the operation (lost datagram).
	Drop
	// Delay stalls the operation by Action.Delay.
	Delay
	// Error fails the operation with an injected error.
	Error
	// Dup performs the operation twice (duplicated datagram).
	Dup
	// Partition drops or fails operations against the peers listed in
	// Action.Peers (all peers when the list is empty). Sites map it to
	// their natural failure: datagram sites drop, dial sites error.
	Partition
	// Panic panics inside Eval — the process-crash fault.
	Panic
)

var kindNames = map[Kind]string{
	Off: "off", Drop: "drop", Delay: "delay", Error: "error",
	Dup: "dup", Partition: "partition", Panic: "panic",
}

// String returns the spec keyword for k.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Action describes what an armed failpoint does when it fires.
type Action struct {
	// Kind selects the injected behaviour.
	Kind Kind
	// Delay is the injected stall (Delay kind).
	Delay time.Duration
	// Err is the injected error message (Error and Partition kinds);
	// empty selects a default message.
	Err string
	// Peers are the peers cut off (Partition kind); empty cuts all.
	Peers []string
	// P is the fire probability in (0, 1]; 0 means always fire.
	P float64
	// Count bounds the number of fires; 0 is unlimited. An exhausted
	// failpoint stays armed but inert.
	Count int64
	// Seed seeds the deterministic probability draws; 0 derives a seed
	// from the failpoint name.
	Seed uint64
}

// Validate reports whether the action is well-formed.
func (a Action) Validate() error {
	if _, ok := kindNames[a.Kind]; !ok {
		return fmt.Errorf("failpoint: unknown action kind %d", a.Kind)
	}
	if a.P < 0 || a.P > 1 {
		return fmt.Errorf("failpoint: probability %v outside [0,1]", a.P)
	}
	if a.Delay < 0 {
		return fmt.Errorf("failpoint: negative delay %v", a.Delay)
	}
	if a.Count < 0 {
		return fmt.Errorf("failpoint: negative count %d", a.Count)
	}
	if a.Kind == Delay && a.Delay == 0 {
		return errors.New("failpoint: delay action needs a duration, e.g. delay(2ms)")
	}
	return nil
}

// Outcome is one evaluation of an armed failpoint. The zero value (Kind ==
// Off) means the failpoint did not fire.
type Outcome struct {
	// Kind is the fired behaviour, or Off.
	Kind Kind
	// Delay is the stall to apply (Delay kind).
	Delay time.Duration
	// Err is the injected error (Error and Partition kinds).
	Err error
}

// Sleep applies a Delay outcome (no-op for every other kind).
func (o Outcome) Sleep() {
	if o.Kind == Delay && o.Delay > 0 {
		time.Sleep(o.Delay)
	}
}

// armed is the state installed by Arm: the immutable action plus the mutable
// fire bookkeeping. Re-arming replaces the whole record, so counters restart.
type armed struct {
	action Action
	err    error
	peers  map[string]bool
	seed   uint64
	left   atomic.Int64  // fires remaining; only used when action.Count > 0
	draws  atomic.Uint64 // probability draws taken
}

// splitmix64 is the SplitMix64 mixing function — a high-quality stateless
// mix of a counter into 64 uniform bits (same generator the trace sampler
// uses).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 hashes a failpoint name into a default seed.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// draw takes the next deterministic probability draw.
func (st *armed) draw() bool {
	n := st.draws.Add(1)
	x := splitmix64(st.seed + n)
	return float64(x>>11)/float64(1<<53) < st.action.P
}

// FP is one registered failpoint site.
type FP struct {
	name  string
	state atomic.Pointer[armed]
	hits  atomic.Int64
}

// Name returns the registered name.
func (f *FP) Name() string { return f.name }

// Armed reports whether the failpoint is armed. This is the hot-path gate:
// one atomic pointer load and a nil comparison when disarmed.
//
//janus:hotpath
func (f *FP) Armed() bool { return f.state.Load() != nil }

// Hits returns how many times the failpoint has fired since registration
// (across re-arms).
func (f *FP) Hits() int64 { return f.hits.Load() }

// Eval evaluates the failpoint without a peer. A Partition action never
// fires here — partition-aware sites use EvalPeer.
func (f *FP) Eval() Outcome { return f.eval("", false) }

// EvalPeer evaluates the failpoint against the named peer. Non-partition
// actions fire regardless of the peer; a Partition action fires only when
// peer is in the armed peer set (or the set is empty).
func (f *FP) EvalPeer(peer string) Outcome { return f.eval(peer, true) }

func (f *FP) eval(peer string, havePeer bool) Outcome {
	st := f.state.Load()
	if st == nil {
		return Outcome{}
	}
	a := st.action
	if a.Kind == Partition {
		if !havePeer {
			return Outcome{}
		}
		if len(st.peers) > 0 && !st.peers[peer] {
			return Outcome{}
		}
	}
	if a.P > 0 && a.P < 1 && !st.draw() {
		return Outcome{}
	}
	if a.Count > 0 && st.left.Add(-1) < 0 {
		return Outcome{}
	}
	f.hits.Add(1)
	// Every fire lands in the flight recorder: when a chaos run trips an
	// invariant, the event dump shows which injected faults preceded it.
	// Only armed failpoints ever reach this line, so the steady-state
	// disarmed cost is untouched.
	events.Recordf("failpoint", "fire", f.name, float64(f.hits.Load()), "kind=%s peer=%s", a.Kind, peer)
	switch a.Kind {
	case Panic:
		panic(fmt.Sprintf("failpoint: %s: injected panic", f.name))
	case Error, Partition:
		return Outcome{Kind: a.Kind, Err: st.err}
	case Delay:
		return Outcome{Kind: Delay, Delay: a.Delay}
	default:
		return Outcome{Kind: a.Kind}
	}
}

// arm installs the action (Off disarms).
func (f *FP) arm(a Action) {
	if a.Kind == Off {
		f.state.Store(nil)
		return
	}
	st := &armed{action: a, seed: a.Seed}
	if st.seed == 0 {
		st.seed = fnv64(f.name)
	}
	msg := a.Err
	if msg == "" {
		if a.Kind == Partition {
			msg = "injected partition"
		} else {
			msg = "injected error"
		}
	}
	st.err = fmt.Errorf("failpoint: %s: %s", f.name, msg)
	if len(a.Peers) > 0 {
		st.peers = make(map[string]bool, len(a.Peers))
		for _, p := range a.Peers {
			st.peers[p] = true
		}
	}
	st.left.Store(a.Count)
	f.state.Store(st)
}

// registry is the process-wide name → site table plus the pending env specs
// whose sites have not registered yet.
var registry = struct {
	mu      sync.Mutex
	fps     map[string]*FP
	pending map[string]Action
}{
	fps:     make(map[string]*FP),
	pending: make(map[string]Action),
}

// EnvVar is the environment variable read at process init for arming specs:
// semicolon-separated name=action pairs, e.g.
//
//	JANUS_FAILPOINTS='qosserver/udp/recv=drop(p=0.2,seed=7);qosserver/ha/pull=error(partitioned)'
const EnvVar = "JANUS_FAILPOINTS"

func init() {
	if spec := os.Getenv(EnvVar); spec != "" {
		if err := armSpec(spec); err != nil {
			// Init cannot return an error; a malformed env spec must not be
			// silently inert.
			fmt.Fprintf(os.Stderr, "failpoint: %s: %v\n", EnvVar, err)
		}
	}
}

// New registers a failpoint site. Call it from a package-level var so the
// site exists at init time. Each name has exactly one site and follows the
// site convention (see validName); New panics otherwise, so a bad site fails
// every binary and test that links it, at init. A pending env spec for the
// name arms the new site immediately.
func New(name string) *FP {
	if !validName(name) {
		panic(fmt.Sprintf("failpoint: name %q violates the site convention: want 2+ slash-separated segments of [a-z0-9-], e.g. \"qosserver/ha/pull\"", name))
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.fps[name]; dup {
		panic("failpoint: duplicate registration of " + name)
	}
	f := &FP{name: name}
	registry.fps[name] = f
	if a, ok := registry.pending[name]; ok {
		delete(registry.pending, name)
		f.arm(a)
	}
	return f
}

// validName checks the site convention: two or more slash-separated
// segments of [a-z0-9-], the first naming the component
// ("qosserver/ha/pull"), so chaos specs stay readable and sortable.
func validName(name string) bool {
	segs := strings.Split(name, "/")
	if len(segs) < 2 {
		return false
	}
	for _, seg := range segs {
		if seg == "" {
			return false
		}
		for _, r := range seg {
			if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
				return false
			}
		}
	}
	return true
}

// Lookup returns the registered failpoint with the given name, or nil.
func Lookup(name string) *FP {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return registry.fps[name]
}

// Arm arms the named failpoint with a (Kind Off disarms). Unknown names are
// an error — arming is how chaos tests express intent, and a typo that
// silently arms nothing would void the test.
func Arm(name string, a Action) error {
	if err := a.Validate(); err != nil {
		return err
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	f := registry.fps[name]
	if f == nil {
		return fmt.Errorf("failpoint: unknown failpoint %q", name)
	}
	f.arm(a)
	return nil
}

// Disarm disarms the named failpoint.
func Disarm(name string) error { return Arm(name, Action{Kind: Off}) }

// DisarmAll disarms every registered failpoint and clears pending env specs.
// Chaos tests call it in cleanup so one test's faults cannot leak into the
// next.
func DisarmAll() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, f := range registry.fps {
		f.arm(Action{Kind: Off})
	}
	registry.pending = make(map[string]Action)
}

// armSpec arms from a semicolon-separated "name=action" list (the EnvVar
// syntax). Names with no registered site are held pending and armed when the
// site registers, so env specs work regardless of package-init order.
func armSpec(spec string) error {
	set, err := parseSet(spec)
	if err != nil {
		return err
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for name, a := range set {
		if f := registry.fps[name]; f != nil {
			f.arm(a)
		} else if a.Kind == Off {
			delete(registry.pending, name)
		} else {
			registry.pending[name] = a
		}
	}
	return nil
}

// Info is one row of List — the /debug/failpoints JSON shape.
type Info struct {
	// Name is the failpoint name (or, for a pending env spec, the name
	// that has no code site yet).
	Name string `json:"name"`
	// Armed is the armed action spec, empty when disarmed.
	Armed string `json:"armed,omitempty"`
	// Hits counts fires since registration.
	Hits int64 `json:"hits"`
	// Registered is false for pending env specs with no code site — a
	// misspelled name shows up here instead of silently doing nothing.
	Registered bool `json:"registered"`
}

// List returns every registered failpoint plus pending env specs, sorted by
// name.
func List() []Info {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make([]Info, 0, len(registry.fps)+len(registry.pending))
	for name, f := range registry.fps {
		info := Info{Name: name, Hits: f.hits.Load(), Registered: true}
		if st := f.state.Load(); st != nil {
			info.Armed = formatAction(st.action)
		}
		out = append(out, info)
	}
	for name, a := range registry.pending {
		out = append(out, Info{Name: name, Armed: formatAction(a)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
