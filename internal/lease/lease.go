// Package lease implements credit leasing: edge admission via bounded rate
// leases (DESIGN.md §11).
//
// Every unleased admission pays the router→janusd UDP hop, which dominates
// on hot keys. A credit lease
// delegates a slice of a bucket's refill rate to the edge: the janusd-side
// Manager carves (rate, burst, TTL, epoch) out of a bucket and the
// router-side Table then admits that key from a local token bucket at memory
// speed, falling through to the normal wire path on miss, expiry, stale
// epoch, or revocation.
//
// Safety comes from rate conservation plus a bounded horizon:
//
//   - The server RESERVES the leased rate on the bucket (bucket.Reserve),
//     so its own refill drops to r − leased while the holder refills at
//     leased — the combined refill never exceeds the rule's rate r.
//   - Grant bursts are prepaid out of the bucket's current credit
//     (TryConsume), never minted.
//   - Every grant expires after TTL unless renewed over the wire, so any
//     state the server loses track of (lost revocation, partition, bucket
//     handoff, membership swap) can over-admit for at most leased·TTL.
//
// Hence the aggregate admission bound across all holders over any window t:
//
//	admitted ≤ C + r·t + leased·TTL
//
// chaostest.TestInvariantLeasesNeverInflateAdmission drives this bound under
// partition, handoff, and revocation loss.
//
// Who gets a lease is demand-driven: the Table keeps a windowed EWMA of the
// per-key decision rate and only asks once a key is hot, so Zipf-hot keys go
// local while the cold tail stays server-arbitrated. All lease traffic
// piggybacks on ordinary admission exchanges (wire/lease.go): asks and
// renewals decorate requests the router had to send anyway, and grants,
// denials, and revocations decorate the responses.
package lease

import "time"

// Defaults shared by the router-side Table and the janusd-side Manager.
const (
	// DefaultTTL is the lease lifetime when the server config leaves it
	// zero. Short TTLs bound the over-admission horizon; renewal cost is
	// one piggybacked wire exchange per key per TTL, which is negligible.
	DefaultTTL = time.Second

	// DefaultFraction is the share of a bucket's refill rate the server is
	// willing to lease out in aggregate, keeping the remainder for
	// server-arbitrated traffic (old routers, cold keys, other tenants of
	// the key).
	DefaultFraction = 0.5

	// DefaultHotRate is the demand (decisions/second, EWMA) above which a
	// router asks for a lease.
	DefaultHotRate = 50.0

	// MinRate is the smallest rate share worth granting; asks that would
	// round below it are denied so bookkeeping never outweighs the win.
	MinRate = 1.0

	// headroom scales the observed demand when sizing a rate share, so a
	// growing key is not starved by its own trailing estimate.
	headroom = 1.2

	// renewFraction is the portion of the TTL left when the holder starts
	// renewing: one admission per renewal window is routed over the wire
	// carrying LeaseOpRenew instead of being admitted locally.
	renewFraction = 0.25
)
