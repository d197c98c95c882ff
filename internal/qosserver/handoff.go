package qosserver

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/failpoint"
)

// Failpoints on the handoff seams. Push (peer = destination handoff
// address) fails the export before any bytes move, leaving entries in the
// source table — the paper's "new owner falls back to the database"
// degradation. Apply corrupts the import side: drop loses a delivered batch
// after the ack, dup applies it twice — both must leave the min-merge
// invariant (credit never inflates) intact.
var (
	fpHandoffPush  = failpoint.New("qosserver/handoff/push")
	fpHandoffApply = failpoint.New("qosserver/handoff/apply")
)

// Bucket-state handoff for membership changes.
//
// When the cluster's membership epoch advances, some keys map to a new
// owner. Rebalance exports exactly those entries from the local table —
// rule geometry, current credit, and default flag, in the snapshot's
// peer frame — pushes them to each new owner's replication listener, and
// deletes them locally once the owner acknowledges receipt. Credits
// therefore survive rebalancing instead of being re-minted from the
// database at full capacity.
//
// The receiving side merges conservatively: an incoming entry whose bucket
// already exists with the same geometry only ever LOWERS the credit
// (min-merge). Whatever consumption happened on either side during the
// handoff window is kept; credit is never refunded. An entry for an
// unknown key (or one whose geometry changed) is installed wholesale.

// Rebalance pushes every table entry whose key has a new owner to that
// owner's handoff (replication) address and removes it locally on ack.
//
// owner maps a key to the handoff address of its current owner, or ""
// when the key still belongs to this server. Rebalance is driven by the
// cluster orchestration after a membership view swap: by then routers
// direct new traffic for moved keys at the new owner, so the exported
// credits are final.
//
// It returns the number of entries successfully handed off. Entries whose
// destination cannot be reached stay in the local table (the new owner
// falls back to the database rule for them) and the first such error is
// returned after all destinations have been attempted.
func (s *Server) Rebalance(owner func(key string) string) (int, error) {
	now := s.clock()
	groups := make(map[string][]peerEntry)
	s.table.Range(func(key string, e *entry) bool {
		if addr := owner(key); addr != "" {
			groups[addr] = append(groups[addr], peerEntry{Rule: e.Rule(key, now), Default: e.isDefault.Load()})
		}
		return true
	})
	moved := 0
	var firstErr error
	for addr, entries := range groups {
		if err := pushHandoff(addr, entries); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("qosserver: handoff to %s: %w", addr, err)
			}
			s.logger.Printf("qosserver: handoff of %d entries to %s failed: %v", len(entries), addr, err)
			continue
		}
		for _, e := range entries {
			s.table.Delete(e.Rule.Key)
		}
		events.Record("qosserver", "handoff-push", addr, float64(len(entries)))
		moved += len(entries)
	}
	return moved, firstErr
}

// pushHandoff delivers one batch of entries to the replication listener at
// addr and waits for the ack.
func pushHandoff(addr string, entries []peerEntry) error {
	if fpHandoffPush.Armed() {
		switch o := fpHandoffPush.EvalPeer(addr); o.Kind {
		case failpoint.Error, failpoint.Partition:
			return o.Err
		case failpoint.Drop:
			return fmt.Errorf("handoff to %s dropped by failpoint", addr)
		case failpoint.Delay:
			o.Sleep()
		}
	}
	_, err := exchange(addr, &peerFrame{Type: peerHandoff, Entries: entries}, peerAck)
	return err
}

// applyHandoff installs handed-off entries with min-merge semantics; see
// the package comment above for why credit only ever moves down.
func (s *Server) applyHandoff(entries []peerEntry) {
	passes := 1
	if fpHandoffApply.Armed() {
		switch o := fpHandoffApply.Eval(); o.Kind {
		case failpoint.Drop, failpoint.Error, failpoint.Partition:
			return // batch acked but never installed
		case failpoint.Dup:
			passes = 2 // duplicate delivery: min-merge must make this a no-op
		case failpoint.Delay:
			o.Sleep()
		}
	}
	for ; passes > 0; passes-- {
		s.applyHandoffEntries(entries)
	}
	events.Record("qosserver", "handoff-apply", "", float64(len(entries)))
}

func (s *Server) applyHandoffEntries(entries []peerEntry) {
	now := s.clock()
	for _, e := range entries {
		// Frames arrive over the network; a corrupt or malicious peer must
		// not install rules the bucket math cannot uphold (negative
		// capacity, credit outside [0, capacity], empty key).
		if e.Rule.Validate() != nil {
			continue
		}
		if have := s.table.Get(e.Rule.Key); have != nil &&
			have.RefillRate() == e.Rule.RefillRate && have.Capacity() == e.Rule.Capacity {
			if cur := have.Credit(now); e.Rule.Credit < cur {
				have.SetCredit(e.Rule.Credit, now)
			}
			have.isDefault.Store(e.Default)
		} else {
			s.put(e.Rule, e.Default, now)
		}
	}
	// The sender's rules may predate edits this server's sync cursor has
	// already passed.
	s.fromPeer.Store(true)
}
