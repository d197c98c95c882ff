// Package table provides the local QoS rule table held by each QoS server
// (paper §III-C: "The local QoS table is represented by a synchronized hash
// map, where the key is the QoS key and the value is the leaky bucket").
//
// The table every QoS server runs is Sharded: the key space is split across
// 64 independently locked shards chosen by a string hash, which removes the
// global serialization point §V-C blames for the QoS layer's CPU
// under-utilization ("the implementation of the locking mechanism being used
// to manage the QoS rules in the local QoS table").
//
// Mutex — one lock around one map, the paper's original design — is kept
// only as the reference implementation TestImplementationsAgreeProperty
// compares Sharded against and as the §V-C arm of
// BenchmarkAblationTableSharding; no product configuration selects it.
package table

import (
	"sync"

	"repro/internal/bucket"
)

// Table is a concurrent map from QoS key to leaky bucket.
type Table interface {
	// Get returns the bucket for key, or nil if absent.
	Get(key string) *bucket.Bucket
	// GetOrCreate returns the bucket for key, creating it with factory
	// (called at most once per insertion) when absent. The bool reports
	// whether a new bucket was created.
	GetOrCreate(key string, factory func() *bucket.Bucket) (*bucket.Bucket, bool)
	// Put inserts or replaces the bucket for key.
	Put(key string, b *bucket.Bucket)
	// Delete removes key; it reports whether the key was present.
	Delete(key string) bool
	// Len returns the number of entries.
	Len() int
	// Range calls fn for every entry until fn returns false. The iteration
	// order is unspecified and entries inserted concurrently may or may not
	// be visited.
	Range(fn func(key string, b *bucket.Bucket) bool)
}

// Mutex is the paper's original single-lock synchronized hash map: the
// reference implementation for tests and the §V-C ablation.
type Mutex struct {
	mu sync.Mutex
	m  map[string]*bucket.Bucket
}

// NewMutex returns an empty single-lock table.
func NewMutex() *Mutex { return &Mutex{m: make(map[string]*bucket.Bucket)} }

// Get implements Table.
func (t *Mutex) Get(key string) *bucket.Bucket {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[key]
}

// GetOrCreate implements Table.
func (t *Mutex) GetOrCreate(key string, factory func() *bucket.Bucket) (*bucket.Bucket, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b, ok := t.m[key]; ok {
		return b, false
	}
	b := factory()
	t.m[key] = b
	return b, true
}

// Put implements Table.
func (t *Mutex) Put(key string, b *bucket.Bucket) {
	t.mu.Lock()
	t.m[key] = b
	t.mu.Unlock()
}

// Delete implements Table.
func (t *Mutex) Delete(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[key]; !ok {
		return false
	}
	delete(t.m, key)
	return true
}

// Len implements Table.
func (t *Mutex) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Range implements Table. The lock is held for the duration of iteration,
// which is the serialization cost the sharded variant removes.
func (t *Mutex) Range(fn func(string, *bucket.Bucket) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, b := range t.m {
		if !fn(k, b) {
			return
		}
	}
}

// Sharded splits the key space across independently locked shards.
type Sharded struct {
	shards []shard
	mask   uint32
}

type shard struct {
	mu sync.RWMutex
	m  map[string]*bucket.Bucket
}

// DefaultShards is the shard count used by NewSharded when 0 is passed.
const DefaultShards = 64

// NewSharded returns a table with n shards; n is rounded up to a power of
// two, and n <= 0 selects DefaultShards.
func NewSharded(n int) *Sharded {
	size := DefaultShards
	if n > 0 {
		size = 1
		for size < n {
			size <<= 1
		}
	}
	t := &Sharded{shards: make([]shard, size), mask: uint32(size - 1)}
	for i := range t.shards {
		t.shards[i].m = make(map[string]*bucket.Bucket)
	}
	return t
}

// hashFor hashes key with inline FNV-1a: hashing the string directly (no
// []byte conversion, no hash.Hash construction) keeps the per-decision
// lookup allocation-free regardless of key length.
//
//janus:hotpath
func hashFor(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

//janus:hotpath
func (t *Sharded) shardFor(key string) *shard {
	return &t.shards[hashFor(key)&t.mask]
}

// Get implements Table.
//
//janus:hotpath
func (t *Sharded) Get(key string) *bucket.Bucket {
	s := t.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[key]
}

// GetOrCreate implements Table.
func (t *Sharded) GetOrCreate(key string, factory func() *bucket.Bucket) (*bucket.Bucket, bool) {
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

// Put implements Table.
func (t *Sharded) Put(key string, b *bucket.Bucket) {
	s := t.shardFor(key)
	s.mu.Lock()
	s.m[key] = b
	s.mu.Unlock()
}

// Delete implements Table.
func (t *Sharded) Delete(key string) bool {
	s := t.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[key]; !ok {
		return false
	}
	delete(s.m, key)
	return true
}

// Len implements Table.
func (t *Sharded) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range implements Table. Each shard's lock is held only while that shard is
// iterated, so concurrent access to other shards proceeds unimpeded.
func (t *Sharded) Range(fn func(string, *bucket.Bucket) bool) {
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

// Kind names a table implementation.
type Kind string

// Table kinds. Product code builds its table with New("") and gets
// KindSharded; KindMutex is for the tests and ablation named above.
const (
	KindMutex   Kind = "mutex"
	KindSharded Kind = "sharded"
)

// New constructs a table of the given kind; anything but KindMutex is
// sharded with the default shard count.
func New(kind Kind) Table {
	switch kind {
	case KindMutex:
		return NewMutex()
	default:
		return NewSharded(0)
	}
}

var (
	_ Table = (*Mutex)(nil)
	_ Table = (*Sharded)(nil)
)
