package table

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bucket"
)

var t0 = time.Unix(1_000_000, 0)

// bucketTable is the map API the tests drive, over *bucket.Bucket.
type bucketTable interface {
	Get(key string) *bucket.Bucket
	GetOrCreate(key string, factory func() *bucket.Bucket) (*bucket.Bucket, bool)
	Put(key string, b *bucket.Bucket)
	Delete(key string) bool
	Len() int
	Range(fn func(key string, b *bucket.Bucket) bool)
}

// Mutex is the paper's original single-lock synchronized hash map (§III-C),
// the reference implementation Sharded is tested against.
type Mutex struct {
	mu sync.Mutex
	m  map[string]*bucket.Bucket
}

func NewMutex() *Mutex { return &Mutex{m: make(map[string]*bucket.Bucket)} }

func (t *Mutex) Get(key string) *bucket.Bucket {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[key]
}

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

func (t *Mutex) Put(key string, b *bucket.Bucket) {
	t.mu.Lock()
	t.m[key] = b
	t.mu.Unlock()
}

func (t *Mutex) Delete(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[key]; !ok {
		return false
	}
	delete(t.m, key)
	return true
}

func (t *Mutex) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Range holds the lock for the whole iteration, the serialization Sharded
// removes.
func (t *Mutex) Range(fn func(string, *bucket.Bucket) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, b := range t.m {
		if !fn(k, b) {
			return
		}
	}
}

func impls() map[string]func() bucketTable {
	return map[string]func() bucketTable{
		"mutex":    func() bucketTable { return NewMutex() },
		"sharded":  func() bucketTable { return NewSharded[*bucket.Bucket](0) },
		"sharded1": func() bucketTable { return NewSharded[*bucket.Bucket](1) },
		"sharded3": func() bucketTable { return NewSharded[*bucket.Bucket](3) }, // rounds up to 4
	}
}

func newBucket() *bucket.Bucket { return bucket.NewFull("k", 1, 10, t0) }

func TestTableBasicOperations(t *testing.T) {
	for name, mk := range impls() {
		t.Run(name, func(t *testing.T) {
			tb := mk()
			if tb.Get("a") != nil {
				t.Fatal("Get on empty returned non-nil")
			}
			if tb.Len() != 0 {
				t.Fatal("empty table Len != 0")
			}
			b1, created := tb.GetOrCreate("a", newBucket)
			if !created || b1 == nil {
				t.Fatal("first GetOrCreate did not create")
			}
			b2, created := tb.GetOrCreate("a", newBucket)
			if created || b2 != b1 {
				t.Fatal("second GetOrCreate created a new bucket")
			}
			if tb.Get("a") != b1 {
				t.Fatal("Get returned different bucket")
			}
			if tb.Len() != 1 {
				t.Fatalf("Len = %d", tb.Len())
			}
			nb := newBucket()
			tb.Put("a", nb)
			if tb.Get("a") != nb {
				t.Fatal("Put did not replace")
			}
			if !tb.Delete("a") {
				t.Fatal("Delete existing returned false")
			}
			if tb.Delete("a") {
				t.Fatal("Delete missing returned true")
			}
			if tb.Len() != 0 {
				t.Fatalf("Len after delete = %d", tb.Len())
			}
		})
	}
}

func TestTableRange(t *testing.T) {
	for name, mk := range impls() {
		t.Run(name, func(t *testing.T) {
			tb := mk()
			want := map[string]bool{}
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("key-%d", i)
				want[k] = true
				tb.Put(k, newBucket())
			}
			seen := map[string]bool{}
			tb.Range(func(k string, b *bucket.Bucket) bool {
				if b == nil {
					t.Errorf("nil bucket for %s", k)
				}
				seen[k] = true
				return true
			})
			if len(seen) != len(want) {
				t.Fatalf("visited %d keys, want %d", len(seen), len(want))
			}
			// Early termination.
			count := 0
			tb.Range(func(string, *bucket.Bucket) bool {
				count++
				return count < 5
			})
			if count != 5 {
				t.Fatalf("early-stop visited %d, want 5", count)
			}
		})
	}
}

func TestGetOrCreateFactoryCalledOncePerKey(t *testing.T) {
	for name, mk := range impls() {
		t.Run(name, func(t *testing.T) {
			tb := mk()
			var calls atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						tb.GetOrCreate(fmt.Sprintf("key-%d", i%20), func() *bucket.Bucket {
							calls.Add(1)
							return newBucket()
						})
					}
				}()
			}
			wg.Wait()
			// The sharded variant may call the factory more than once per key
			// under a race, but it must install exactly one bucket; verify via
			// identity stability and len.
			if tb.Len() != 20 {
				t.Fatalf("Len = %d, want 20", tb.Len())
			}
			for i := 0; i < 20; i++ {
				k := fmt.Sprintf("key-%d", i)
				b1 := tb.Get(k)
				b2, created := tb.GetOrCreate(k, newBucket)
				if created || b1 != b2 {
					t.Fatalf("bucket identity unstable for %s", k)
				}
			}
		})
	}
}

func TestTableConcurrentMixedOps(t *testing.T) {
	for name, mk := range impls() {
		t.Run(name, func(t *testing.T) {
			tb := mk()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 500; i++ {
						k := fmt.Sprintf("key-%d", (g*31+i)%50)
						switch i % 5 {
						case 0:
							tb.Put(k, newBucket())
						case 1:
							tb.Get(k)
						case 2:
							tb.GetOrCreate(k, newBucket)
						case 3:
							tb.Delete(k)
						case 4:
							tb.Range(func(string, *bucket.Bucket) bool { return false })
						}
					}
				}(g)
			}
			wg.Wait()
			// No assertion beyond absence of race/panic; validate Len sanity.
			if n := tb.Len(); n < 0 || n > 50 {
				t.Fatalf("Len = %d out of range", n)
			}
		})
	}
}

func TestShardedPowerOfTwoRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{0, DefaultShards}, {-3, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {100, 128},
	} {
		tb := NewSharded[*bucket.Bucket](c.in)
		if len(tb.shards) != c.want {
			t.Errorf("NewSharded(%d) shards = %d, want %d", c.in, len(tb.shards), c.want)
		}
	}
}

// Property: both implementations behave identically as a map under a
// sequential operation stream.
func TestImplementationsAgreeProperty(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
	}
	f := func(ops []op) bool {
		mt, st := NewMutex(), NewSharded[*bucket.Bucket](8)
		model := map[string]bool{}
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.Key%30)
			switch o.Kind % 3 {
			case 0:
				mt.Put(k, newBucket())
				st.Put(k, newBucket())
				model[k] = true
			case 1:
				d1 := mt.Delete(k)
				d2 := st.Delete(k)
				if d1 != d2 || d1 != model[k] {
					return false
				}
				delete(model, k)
			case 2:
				g1 := mt.Get(k) != nil
				g2 := st.Get(k) != nil
				if g1 != g2 || g1 != model[k] {
					return false
				}
			}
		}
		return mt.Len() == len(model) && st.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGetBytesMatchesGet: a key found by its bytes is the key found by its
// string, present or absent, in every shard count.
func TestGetBytesMatchesGet(t *testing.T) {
	for _, shards := range []int{1, 4, 0} {
		tb := NewSharded[*bucket.Bucket](shards)
		for i := 0; i < 500; i += 2 {
			tb.Put(fmt.Sprintf("key-%d", i), newBucket())
		}
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("key-%d", i)
			if hashFor(key) != hashFor([]byte(key)) {
				t.Fatalf("%q hashes differently as bytes", key)
			}
			if got, want := tb.GetBytes([]byte(key)), tb.Get(key); got != want || (want == nil) != (i%2 == 1) {
				t.Fatalf("shards %d: GetBytes(%q) = %p, Get = %p", shards, key, got, want)
			}
		}
	}
}

// TestGetBytesAllocPin: looking up resident keys by their bytes allocates
// nothing, however the key changes from one lookup to the next.
func TestGetBytesAllocPin(t *testing.T) {
	tb := NewSharded[*bucket.Bucket](0)
	keys := [][]byte{[]byte("alice"), []byte("bob")}
	for _, k := range keys {
		tb.Put(string(k), newBucket())
	}
	i := 0
	n := testing.AllocsPerRun(200, func() {
		if tb.GetBytes(keys[i%2]) == nil {
			t.Fatalf("%s not found", keys[i%2])
		}
		i++
	})
	if n != 0 {
		t.Errorf("GetBytes over alternating keys: %v allocs/op, want 0", n)
	}
}
