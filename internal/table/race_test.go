package table

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bucket"
)

// Race-detector stress tests (run via `make race`): every Table operation —
// Get, GetOrCreate, Put, Delete, Len, Range — hammered
// concurrently over a shared key space, for both implementations. The race
// detector turns any unsynchronized map access in the mutex or sharded
// paths into a test failure; the final assertions catch lost updates.
func TestTableRaceStress(t *testing.T) {
	for _, name := range []string{"mutex", "sharded"} {
		t.Run(name, func(t *testing.T) {
			tbl := impls()[name]()
			now := time.Unix(0, 0)
			const (
				workers = 8
				keys    = 64
				iters   = 400
			)
			key := func(i int) string { return fmt.Sprintf("k%02d", i%keys) }
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						k := key(i + w)
						switch i % 6 {
						case 0:
							tbl.Put(k, bucket.New(bucket.LimitedGuest(k, 10, 100), now))
						case 1:
							tbl.Get(k)
						case 2:
							tbl.GetOrCreate(k, func() *bucket.Bucket {
								return bucket.New(bucket.LimitedGuest(k, 10, 100), now)
							})
						case 3:
							tbl.Delete(k)
						case 4:
							tbl.Range(func(_ string, b *bucket.Bucket) bool {
								b.Credit(now)
								return true
							})
						default:
							tbl.Len()
						}
					}
				}(w)
			}
			wg.Wait()

			// The table must still be coherent: every surviving key resolves
			// and its bucket respects the credit invariant. The survivors are
			// collected first — Range holds table locks, so calling Get or
			// Len from inside the callback would deadlock the mutex variant.
			survivors := map[string]*bucket.Bucket{}
			tbl.Range(func(k string, b *bucket.Bucket) bool {
				survivors[k] = b
				return true
			})
			for k, b := range survivors {
				if got := tbl.Get(k); got != b {
					t.Errorf("Get(%q) returned a different bucket than Range", k)
				}
				if c := b.Credit(now.Add(time.Hour)); c > b.Capacity() {
					t.Errorf("bucket %q credit %v exceeds capacity %v", k, c, b.Capacity())
				}
			}
			if got := tbl.Len(); got != len(survivors) {
				t.Errorf("Len() = %d but Range visited %d", got, len(survivors))
			}
		})
	}
}

// TestShardedGetOrCreateSingleFactory verifies the double-checked insert
// publishes exactly one bucket per key under contention — the property that
// keeps two routers from minting two buckets (and double credit) for one
// rule.
func TestShardedGetOrCreateSingleFactory(t *testing.T) {
	tbl := NewSharded[*bucket.Bucket](0)
	now := time.Unix(0, 0)
	const workers = 16
	results := make([]*bucket.Bucket, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b, _ := tbl.GetOrCreate("shared", func() *bucket.Bucket {
				return bucket.New(bucket.LimitedGuest("shared", 1, 10), now)
			})
			results[w] = b
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Fatalf("worker %d observed a different bucket instance", w)
		}
	}
}
