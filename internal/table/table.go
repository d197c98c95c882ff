// Package table provides the local QoS rule table held by each QoS server
// (paper §III-C: "The local QoS table is represented by a synchronized hash
// map, where the key is the QoS key and the value is the leaky bucket").
//
// The table is Sharded: the key space is split across 64 independently
// locked shards chosen by a string hash, which removes the global
// serialization point §V-C blames for the QoS layer's CPU under-utilization
// ("the implementation of the locking mechanism being used to manage the QoS
// rules in the local QoS table").
//
// Sharded is generic in the value a key maps to. A QoS server keeps one
// entry per resident key in it (the bucket, the key's audit account and its
// default-rule and fallback marks together), so a decision makes one locked
// lookup. The paper's single-lock map lives on only in tests: as the
// reference implementation TestImplementationsAgreeProperty compares Sharded
// against, and as the §V-C arm of BenchmarkAblationTableSharding.
package table

import (
	"sync"

	"repro/internal/bucket"
)

// Sharded is a concurrent map from key to V that splits the key space
// across independently locked shards.
type Sharded[V any] struct {
	shards []shard[V]
	mask   uint32
}

type shard[V any] struct {
	mu sync.RWMutex
	m  map[string]V
}

// DefaultShards is the shard count used by NewSharded when 0 is passed.
const DefaultShards = 64

// NewSharded returns a table with n shards; n is rounded up to a power of
// two, and n <= 0 selects DefaultShards.
func NewSharded[V any](n int) *Sharded[V] {
	size := DefaultShards
	if n > 0 {
		size = 1
		for size < n {
			size <<= 1
		}
	}
	t := &Sharded[V]{shards: make([]shard[V], size), mask: uint32(size - 1)}
	for i := range t.shards {
		t.shards[i].m = make(map[string]V)
	}
	return t
}

// hashFor hashes key with inline FNV-1a: hashing the string or the bytes
// directly (no conversion, no hash.Hash construction) keeps the
// per-decision lookup allocation-free regardless of key length, and a key
// hashes alike in either form.
//
//janus:hotpath
func hashFor[K string | []byte](key K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

//janus:hotpath
func (t *Sharded[V]) shardFor(key string) *shard[V] {
	return &t.shards[hashFor(key)&t.mask]
}

// Get returns the value for key, or the zero V (nil for a pointer) if
// absent.
//
//janus:hotpath
func (t *Sharded[V]) Get(key string) V {
	s := t.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[key]
}

// GetBytes is Get for a key held as bytes, such as a key still inside the
// datagram that carried it. The map index converts nothing, so a lookup
// allocates nothing.
//
//janus:hotpath
func (t *Sharded[V]) GetBytes(key []byte) V {
	s := &t.shards[hashFor(key)&t.mask]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[string(key)]
}

// GetOrCreate returns the value for key, creating it with factory when
// absent; the bool reports whether this call created it. Under a race
// factory may run more than once, but exactly one value is installed.
func (t *Sharded[V]) GetOrCreate(key string, factory func() V) (V, bool) {
	s := t.shardFor(key)
	s.mu.RLock()
	b, ok := s.m[key]
	s.mu.RUnlock()
	if ok {
		return b, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.m[key]; ok {
		return b, false
	}
	b = factory()
	s.m[key] = b
	return b, true
}

// Put inserts or replaces the value for key.
func (t *Sharded[V]) Put(key string, v V) {
	s := t.shardFor(key)
	s.mu.Lock()
	s.m[key] = v
	s.mu.Unlock()
}

// Delete removes key; it reports whether the key was present.
func (t *Sharded[V]) Delete(key string) bool {
	s := t.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[key]; !ok {
		return false
	}
	delete(s.m, key)
	return true
}

// Len returns the number of entries.
func (t *Sharded[V]) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls fn for every entry until fn returns false. The order is
// unspecified, and an entry inserted concurrently may or may not be visited.
// Each shard's lock is held only while that shard is iterated, so concurrent
// access to other shards proceeds unimpeded.
func (t *Sharded[V]) Range(fn func(string, V) bool) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		for k, b := range s.m {
			if !fn(k, b) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}

// New returns a sharded table of buckets with the default shard count. No
// product code calls it: it is kept for the benchmark's table.get and
// table.getorcreate layers (benchmark/layers.go), which build their table
// with New(""), and it goes when they call NewSharded.
func New(string) *Sharded[*bucket.Bucket] { return NewSharded[*bucket.Bucket](0) }
