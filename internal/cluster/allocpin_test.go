package cluster

import (
	"fmt"
	"testing"

	"repro/internal/bucket"
)

// TestWholeStackAllocPin: one check through the whole DNS-mode stack, from
// Cluster.Checker's client through one router and one QoS server, with the
// periodic loops off (no rule sync, checkpoint, audit, HA or membership
// beats). AllocsPerRun counts every object the process allocates, on both
// sides of every socket. A check of a resident key allocates nothing, cycling
// through three keys so that a string made per key shows. A first-sight
// check allocates what the QoS server keeps, the key's string and its table
// entry, and the one object minisql still makes for the rule fetch: the
// database server's string of the key argument. A table map grown now and
// then is a fraction of a count, which AllocsPerRun's integer average drops.
func TestWholeStackAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins run uninstrumented")
	}
	resident := []string{"user-0", "user-1", "user-2"}
	c := newCluster(t, Config{
		Mode:        DNS,
		Rules:       rules(len(resident), 1e9, 1e9),
		DefaultRule: bucket.Rule{RefillRate: 1e9, Capacity: 1e9, Credit: 1e9},
	})
	check := c.Checker()
	const runs = 300
	// The names are made before measuring: the client's key is the caller's.
	fresh := make([]string, runs+1)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("first-sight-%d", i)
	}
	for _, tc := range []struct {
		name   string
		keys   []string
		allocs float64
	}{
		{"resident", resident, 0},
		{"first sight", fresh, 3},
	} {
		i := 0
		run := func() {
			key := tc.keys[i%len(tc.keys)]
			i++
			if ok, err := check.Check(key); err != nil || !ok {
				t.Fatalf("%s: Check(%q) = %v, %v", tc.name, key, ok, err)
			}
		}
		if tc.name == "resident" {
			for range resident {
				run() // installs the resident keys before measuring
			}
		}
		if n := testing.AllocsPerRun(runs, run); n != tc.allocs {
			t.Errorf("%s check allocates %v times, want %v", tc.name, n, tc.allocs)
		}
	}
	if n := c.totalDefaultReplies(); n != 0 {
		t.Errorf("%d default replies: the pin measured a fabricated path", n)
	}
}
