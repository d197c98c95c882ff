// Package membership provides the epoch-versioned cluster membership layer
// that lets the QoS server tier grow and shrink without stranding
// leaky-bucket state.
//
// The paper's router partitions keys with CRC32(key) mod N over a fixed
// backend list (§III-B), so any change to N remaps ~N/(N+1) of all keys.
// This package replaces the fixed list with a View — an immutable,
// epoch-numbered snapshot of the alive backends — published by a
// lightweight Coordinator and consumed by routers through a hot swap, and
// replaces the formula with jump consistent hash:
//
//   - View{Epoch, Backends}: the unit of membership truth. Epochs are
//     strictly increasing; two views with the same epoch are identical.
//   - Pick: the one key→backend mapping, jump consistent hash (Lamping &
//     Veach, arXiv:1406.2294) over FNV-1a-64. Appending a backend moves
//     only ~K/(N+1) keys, all onto the new backend, which is what makes
//     elastic scaling of the QoS tier affordable. The mapping is a
//     cluster-wide property: every router serving one QoS tier must run
//     the same one, or a key has two owners.
//   - Coordinator: tracks members, their heartbeats, and their handoff
//     addresses; it ejects members whose heartbeats stop, re-admits them
//     when heartbeats resume, and publishes a new View (epoch+1) to
//     subscribers on every change.
//
// The bucket-state handoff that accompanies an epoch change is implemented
// by internal/qosserver (Rebalance) and orchestrated by internal/cluster;
// this package only decides who owns what.
package membership

import (
	"errors"
	"fmt"
)

// ErrNoBackends is returned when a key→backend mapping is requested against
// an empty view (n == 0). It replaces the runtime panic ("integer divide by
// zero" / index out of range) that a fixed-list router would hit.
var ErrNoBackends = errors.New("membership: no backends in view")

// View is an immutable epoch-versioned snapshot of the alive backends, in
// stable admission order. Index i in Backends is partition i for Pick.
type View struct {
	// Epoch is the version of this view. Strictly increasing: every
	// membership change (join, leave, ejection, re-admission) advances it.
	Epoch uint64
	// Backends are the routable backend names (DNS names or literal
	// addresses), in stable order. The slice length fixes N for Pick.
	Backends []string
}

// Clone returns a deep copy of the view, so holders may retain it across
// coordinator mutations.
func (v View) Clone() View {
	c := View{Epoch: v.Epoch}
	if v.Backends != nil {
		c.Backends = append([]string(nil), v.Backends...)
	}
	return c
}

// Owner returns the backend name owning key.
func (v View) Owner(key string) (string, error) {
	i, err := Pick(key, len(v.Backends))
	if err != nil {
		return "", fmt.Errorf("membership: epoch %d: %w", v.Epoch, err)
	}
	return v.Backends[i], nil
}

// RemapFraction estimates the fraction of the key space whose owner differs
// between views old and new, by probing samples synthetic
// keys. It is what routers report as the per-epoch remap metric. samples
// <= 0 selects 2048.
func RemapFraction(old, new View, samples int) float64 {
	if samples <= 0 {
		samples = 2048
	}
	if len(old.Backends) == 0 || len(new.Backends) == 0 {
		return 1
	}
	moved := 0
	for i := 0; i < samples; i++ {
		key := fmt.Sprintf("remap-probe-%d", i)
		a, err1 := old.Owner(key)
		b, err2 := new.Owner(key)
		if err1 != nil || err2 != nil || a != b {
			moved++
		}
	}
	return float64(moved) / float64(samples)
}
