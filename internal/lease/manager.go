package lease

import (
	"sync"
	"time"

	"repro/internal/wire"
)

// Bucket is the slice of the leaky-bucket surface the Manager needs: rate
// reservation (the conservation mechanism) and credit prepayment for grant
// bursts. *bucket.Bucket satisfies it.
type Bucket interface {
	RefillRate() float64
	Capacity() float64
	Credit(now time.Time) float64
	TryConsume(n float64, now time.Time) bool
	Reserve(delta float64, now time.Time) bool
	Release(delta float64, now time.Time)
}

// ManagerConfig configures the janusd-side lease manager.
type ManagerConfig struct {
	// Fraction is the share of a bucket's refill rate leasable in
	// aggregate, (0,1]; 0 means DefaultFraction.
	Fraction float64
	// TTL is the lease lifetime; 0 means DefaultTTL. Clamped to
	// [1ms, wire.MaxLeaseTTL].
	TTL time.Duration
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// Manager is the janusd-side lease authority: it carves rate shares out of
// buckets, tracks who holds what, and queues revocations for piggybacked
// delivery. Callers must Revoke (or Drop) a key's leases BEFORE replacing
// or handing off its bucket — the reservation lives on the bucket, so a
// swap without revocation would let old and new refill streams coexist.
type Manager struct {
	fraction float64
	ttl      time.Duration
	clock    func() time.Time

	mu        sync.Mutex
	keys      map[string]*keyLeases
	pending   map[string][]wire.LeaseGrant // holder → queued revocations
	totalRate float64
}

type keyLeases struct {
	holders map[string]*holderLease
	total   float64 // sum of holder rates
}

type holderLease struct {
	rate   float64
	burst  float64
	expiry time.Time
	epoch  uint64
	b      Bucket // the bucket the rate is reserved on
}

// pendingCap bounds the queued revocations per holder; beyond it the oldest
// are dropped — the TTL already bounds what a lost revocation can cost.
const pendingCap = 1024

// NewManager creates an empty lease manager.
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.Fraction <= 0 {
		cfg.Fraction = DefaultFraction
	}
	if cfg.Fraction > 1 {
		cfg.Fraction = 1
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.TTL > wire.MaxLeaseTTL {
		cfg.TTL = wire.MaxLeaseTTL
	}
	if cfg.TTL < time.Millisecond {
		cfg.TTL = time.Millisecond // the wire's TTL resolution
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Manager{
		fraction: cfg.Fraction,
		ttl:      cfg.TTL,
		clock:    cfg.Clock,
		keys:     make(map[string]*keyLeases),
		pending:  make(map[string][]wire.LeaseGrant),
	}
}

// TTL returns the configured lease lifetime.
func (m *Manager) TTL() time.Duration { return m.ttl }

// Handle serves one piggybacked lease ask for key from holder against
// bucket b, returning the section to attach to the response (zero Op for
// renounces, which need no reply).
func (m *Manager) Handle(key, holder string, ask wire.LeaseAsk, b Bucket) wire.LeaseGrant {
	now := m.clock()
	m.mu.Lock()
	defer m.mu.Unlock()
	kl := m.keys[key]
	if kl != nil {
		m.expireLocked(key, kl, now)
		kl = m.keys[key]
	}

	if ask.Op == wire.LeaseOpRenounce {
		if kl != nil {
			if cur := kl.holders[holder]; cur != nil {
				m.releaseLocked(key, kl, holder, cur, now)
			}
		}
		return wire.LeaseGrant{}
	}

	// Ask and renew share the sizing logic: clamp the holder's scaled
	// demand to what the leasable fraction leaves available, counting the
	// holder's own current share as available to itself.
	var cur *holderLease
	if kl != nil {
		cur = kl.holders[holder]
	}
	var curRate, othersRate float64
	if cur != nil {
		curRate = cur.rate
	}
	if kl != nil {
		othersRate = kl.total - curRate
	}
	avail := m.fraction*b.RefillRate() - othersRate
	target := ask.Demand * headroom
	if target > avail {
		target = avail
	}
	if target < MinRate {
		// Not worth a lease (or nothing left to lease): deny, returning
		// any share the holder already had.
		if cur != nil {
			m.releaseLocked(key, kl, holder, cur, now)
		}
		return wire.LeaseGrant{Op: wire.LeaseOpDeny, Epoch: ask.Epoch}
	}

	if cur == nil {
		if !b.Reserve(target, now) {
			return wire.LeaseGrant{Op: wire.LeaseOpDeny, Epoch: ask.Epoch}
		}
		// Prepay the burst out of the bucket's current credit — never
		// minted, and zero is fine (the local bucket starts empty and
		// fills at the leased rate).
		var burst float64
		if want := target * m.ttl.Seconds() / 2; want > 0 {
			if credit := b.Credit(now) * m.fraction; credit < want {
				want = credit
			}
			if want > 0 && b.TryConsume(want, now) {
				burst = want
			}
		}
		if kl == nil {
			kl = &keyLeases{holders: make(map[string]*holderLease)}
			m.keys[key] = kl
		}
		kl.holders[holder] = &holderLease{rate: target, burst: burst, expiry: now.Add(m.ttl), epoch: ask.Epoch, b: b}
		kl.total += target
		m.totalRate += target
		return wire.LeaseGrant{Op: wire.LeaseOpGrant, Rate: target, Burst: burst, TTL: m.ttl, Epoch: ask.Epoch}
	}

	// Renewal: adapt the share to current demand and extend the window.
	switch delta := target - cur.rate; {
	case delta > 0:
		if cur.b.Reserve(delta, now) {
			cur.rate = target
			kl.total += delta
			m.totalRate += delta
		}
	case delta < 0:
		cur.b.Release(-delta, now)
		cur.rate = target
		kl.total += delta
		m.totalRate += delta
	}
	cur.expiry = now.Add(m.ttl)
	cur.epoch = ask.Epoch
	return wire.LeaseGrant{Op: wire.LeaseOpGrant, Rate: cur.rate, Burst: cur.burst, TTL: m.ttl, Epoch: ask.Epoch}
}

// releaseLocked returns cur's reserved rate and forgets the lease.
func (m *Manager) releaseLocked(key string, kl *keyLeases, holder string, cur *holderLease, now time.Time) {
	cur.b.Release(cur.rate, now)
	kl.total -= cur.rate
	m.totalRate -= cur.rate
	delete(kl.holders, holder)
	if len(kl.holders) == 0 {
		delete(m.keys, key)
	}
}

// expireLocked lazily expires key's dead leases.
func (m *Manager) expireLocked(key string, kl *keyLeases, now time.Time) {
	for holder, cur := range kl.holders {
		if !now.Before(cur.expiry) {
			m.releaseLocked(key, kl, holder, cur, now)
		}
	}
}

// Revoke withdraws every lease on key (rule edited, bucket evicted or
// handed off): reserved rate is released immediately and a revocation is
// queued for each holder, delivered piggybacked on the next response sent
// to it. Returns the number of leases revoked.
func (m *Manager) Revoke(key string) int {
	now := m.clock()
	m.mu.Lock()
	defer m.mu.Unlock()
	kl := m.keys[key]
	if kl == nil {
		return 0
	}
	n := 0
	for holder, cur := range kl.holders {
		m.releaseLocked(key, kl, holder, cur, now)
		q := append(m.pending[holder], wire.LeaseGrant{Op: wire.LeaseOpRevoke, Epoch: cur.epoch, Key: key})
		if len(q) > pendingCap {
			q = q[len(q)-pendingCap:]
		}
		m.pending[holder] = q
		n++
	}
	return n
}

// PendingRevoke pops one queued revocation for holder, to piggyback on a
// response about to be sent to it.
func (m *Manager) PendingRevoke(holder string) (wire.LeaseGrant, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.pending[holder]
	if len(q) == 0 {
		return wire.LeaseGrant{}, false
	}
	g := q[0]
	if len(q) == 1 {
		delete(m.pending, holder)
	} else {
		m.pending[holder] = q[1:]
	}
	return g, true
}

// Sweep expires dead leases across all keys, releasing their reserved
// rate; janusd runs it periodically so leases whose holders vanished do
// not pin reservations past their TTL. Returns the number expired.
func (m *Manager) Sweep(now time.Time) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for key, kl := range m.keys {
		before := len(kl.holders)
		m.expireLocked(key, kl, now)
		n += before - len(kl.holders)
	}
	return n
}

// LeasedRate returns the total refill rate currently delegated, in
// credits/second (the janus_qos_leased_rate gauge).
func (m *Manager) LeasedRate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalRate
}

// Holders returns the number of outstanding leases.
func (m *Manager) Holders() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, kl := range m.keys {
		n += len(kl.holders)
	}
	return n
}

// KeyLease reports the leased rate and holder count for one key (the
// /debug/qos snapshot columns).
func (m *Manager) KeyLease(key string) (rate float64, holders int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	kl := m.keys[key]
	if kl == nil {
		return 0, 0
	}
	return kl.total, len(kl.holders)
}
