package store

import (
	"testing"

	"repro/internal/bucket"
	"repro/internal/minisql"
)

// TestGetAllocPin: a first-sight rule fetch, Get, over the in-process engine
// and over a warmed minisql pool on loopback, cycling through three keys so
// that a string made per key shows. AllocsPerRun counts the whole process.
// Get itself allocates nothing: its argument array is recycled. In process,
// a miss allocates nothing and a hit the engine's row list and value array.
// Over loopback, a miss allocates nothing either, since the server looks the
// key up from the frame's bytes, and a hit allocates the engine's two and
// the client's row list, row and key string.
func TestGetAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins run uninstrumented")
	}
	engine := minisql.NewEngine()
	srv, err := minisql.NewServer(engine, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := minisql.NewPool(srv.Addr(), 1)
	defer pool.Close()
	if err := New(engine).Init(); err != nil {
		t.Fatal(err)
	}
	present := []string{"p0", "p1", "p2"}
	for _, k := range present {
		if err := New(engine).Put(bucket.Rule{Key: k, RefillRate: 1, Capacity: 2, Credit: 2}); err != nil {
			t.Fatal(err)
		}
	}
	absent := []string{"a0", "a1", "a2"}
	for _, tc := range []struct {
		name   string
		db     Executor
		keys   []string
		allocs float64
	}{
		{"engine miss", engine, absent, 0},
		{"engine hit", engine, present, 2},
		{"loopback miss", pool, absent, 0},
		{"loopback hit", pool, present, 5},
	} {
		s, i := New(tc.db), 0
		get := func() {
			key := tc.keys[i%len(tc.keys)]
			i++
			if r, found, err := s.Get(key); err != nil || found != (tc.keys[0] == "p0") || found && r.Key != key {
				t.Fatalf("%s: Get(%q) = %+v, %v, %v", tc.name, key, r, found, err)
			}
		}
		get()
		if n := testing.AllocsPerRun(300, get); n != tc.allocs {
			t.Errorf("%s: Get allocates %v times, want %v", tc.name, n, tc.allocs)
		}
	}
}
