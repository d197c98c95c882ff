package loadgen

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestFromSpecZipfTiered(t *testing.T) {
	cases := []struct {
		spec string
		ok   bool
	}{
		// zipf accept
		{"zipf:1.3:1000", true},
		{"zipf:2:1", true},
		{"zipf:1.0001:500000", true},
		// zipf reject
		{"zipf:1:10", false},   // exponent must be > 1
		{"zipf:0.5:10", false}, // exponent must be > 1
		{"zipf:1.3:0", false},  // population >= 1
		{"zipf:1.3:-5", false}, // population >= 1
		{"zipf:1.3", false},    // missing population
		{"zipf:x:10", false},   // non-numeric exponent
		{"zipf:1.3:x", false},  // non-numeric population
		{"zipf:1.3:10:9", false},
		// tiered accept
		{"tiered:zipf:1.3:100@8,uuid@2", true},
		{"tiered:uuid@1", true},
		{"tiered:cycle:a,b,c@3,fixed:k@1", true}, // commas inside cycle
		{"tiered:seq:5@0.5,words@0.5", true},
		// tiered reject
		{"tiered:", false},
		{"tiered:uuid@0", false},             // weight must be > 0
		{"tiered:uuid@-1", false},            // weight must be > 0
		{"tiered:uuid", false},               // no @weight
		{"tiered:zipf:1.3:10@2,uuid", false}, // trailing component without weight
		{"tiered:tiered:uuid@1@1", false},    // nesting forbidden
		{"tiered:bogus@1", false},            // bad sub-spec
		{"tiered:zipf:1:10@1", false},        // bad zipf inside tiered
	}
	for _, c := range cases {
		gen, err := FromSpec(c.spec, 1)
		if (err == nil) != c.ok {
			t.Errorf("FromSpec(%q): err = %v, want ok=%v", c.spec, err, c.ok)
			continue
		}
		if err == nil && gen.Next() == "" {
			t.Errorf("FromSpec(%q): empty first key", c.spec)
		}
	}
}

func TestZipfGenSkewed(t *testing.T) {
	g := NewZipfGen(1, 1.3, 1000, 0, 0)
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		counts[g.Next()]++
	}
	// Rank 0 must dominate: under s=1.3 it should collect well over 10%
	// of the mass, which a uniform draw over 1000 keys (0.1%) never does.
	if top := counts[ZipfKey(1000, 0)]; top < 2000 {
		t.Fatalf("rank-0 count = %d/20000, want heavy skew", top)
	}
	// And the stream must not collapse to a handful of keys.
	if len(counts) < 50 {
		t.Fatalf("only %d distinct keys", len(counts))
	}
}

func TestZipfGenDeterministicPerSeed(t *testing.T) {
	a := NewZipfGen(7, 1.3, 100, 0, 0)
	b := NewZipfGen(7, 1.3, 100, 0, 0)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestZipfGenChurnRotatesHotSet(t *testing.T) {
	// With rotation every 1000 draws and step 50, the dominant key of the
	// first window must differ from the dominant key of a later window.
	g := NewZipfGen(3, 1.5, 200, 1000, 50)
	hot := func() string {
		counts := map[string]int{}
		for i := 0; i < 1000; i++ {
			counts[g.Next()]++
		}
		best, n := "", 0
		for k, c := range counts {
			if c > n {
				best, n = k, c
			}
		}
		return best
	}
	first := hot()
	_ = hot() // advance a window
	third := hot()
	if first == third {
		t.Fatalf("hot key %q did not rotate under churn", first)
	}
}

func TestZipfKeysDisjointAcrossPopulations(t *testing.T) {
	// Keys embed the population size, so generators over different N never
	// collide — required when tiers mix zipf components of different sizes.
	if ZipfKey(100, 5) == ZipfKey(1000, 5) {
		t.Fatal("zipf keys collide across populations")
	}
}

func TestTieredGenRespectsWeights(t *testing.T) {
	gen, err := FromSpec("tiered:fixed:paid@8,fixed:free@2", 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[gen.Next()]++
	}
	frac := float64(counts["paid"]) / 10000
	if frac < 0.75 || frac > 0.85 {
		t.Fatalf("paid fraction = %.3f, want ~0.8", frac)
	}
}

func TestPrefixGen(t *testing.T) {
	g := &PrefixGen{Prefix: "t0-", Inner: NewSequentialGen(1)}
	if got := g.Next(); got != "t0-1" {
		t.Fatalf("Next() = %q", got)
	}
	c := g.Clone(1)
	if !strings.HasPrefix(c.Next(), "t0-") {
		t.Fatal("clone lost prefix")
	}
}

// TestCloneIndependenceProperty is the satellite-required property test:
// for every randomized spec, two clones must never correlate streams, and
// the parent rebuilt from the same seed must reproduce the same clones.
func TestCloneIndependenceProperty(t *testing.T) {
	specs := []string{
		"uuid",
		"timestamp",
		"words",
		"zipf:1.3:100000",
		"tiered:zipf:1.3:5000@8,uuid@2",
		"tiered:uuid@1,timestamp@1,words@1",
	}
	const draws = 400
	for _, spec := range specs {
		for seed := int64(1); seed <= 3; seed++ {
			parent, err := FromSpec(spec, seed)
			if err != nil {
				t.Fatalf("FromSpec(%q): %v", spec, err)
			}
			c1 := parent.Clone(1)
			c2 := parent.Clone(2)
			same := 0
			for i := 0; i < draws; i++ {
				if c1.Next() == c2.Next() {
					same++
				}
			}
			// Zipfian clones share a hot set by design, so identical draws
			// happen; correlated streams would match at nearly every
			// position. Demand at least 20% divergence.
			if same > draws*8/10 {
				t.Errorf("%s seed %d: clones matched %d/%d positions", spec, seed, same, draws)
			}
			// Determinism: rebuilding parent+clone from the same seed must
			// replay the identical stream.
			parent2, _ := FromSpec(spec, seed)
			r1 := parent2.Clone(1)
			ref, _ := FromSpec(spec, seed)
			r2 := ref.Clone(1)
			for i := 0; i < 50; i++ {
				if r1.Next() != r2.Next() {
					t.Errorf("%s seed %d: same-seed clone streams diverged", spec, seed)
					break
				}
			}
		}
	}
}

func TestOpenLoopRateFuncStep(t *testing.T) {
	// A 10x step in RateFunc must show up in achieved throughput: the
	// second half of the run must complete several times the requests of
	// the first half.
	checker := CheckerFunc(func(string) (bool, error) { return true, nil })
	res := RunOpenLoop(context.Background(), OpenLoopConfig{
		Checker: checker,
		Keys:    &FixedGen{Key: "k"},
		RateFunc: func(elapsed time.Duration) float64 {
			if elapsed < 200*time.Millisecond {
				return 100
			}
			return 1000
		},
		Duration:    400 * time.Millisecond,
		TrackSeries: true,
	})
	if res.Accepted == 0 {
		t.Fatal("no requests issued")
	}
	// ~20 requests in the first phase, ~200 in the second.
	if res.Accepted < 100 {
		t.Fatalf("accepted = %d, step rate not applied", res.Accepted)
	}
}

func TestOpenLoopRateFuncPause(t *testing.T) {
	// A profile returning 0 pauses the stream; the run still terminates.
	checker := CheckerFunc(func(string) (bool, error) { return true, nil })
	res := RunOpenLoop(context.Background(), OpenLoopConfig{
		Checker:  checker,
		Keys:     &FixedGen{Key: "k"},
		RateFunc: func(time.Duration) float64 { return 0 },
		Duration: 100 * time.Millisecond,
	})
	if res.Accepted != 0 {
		t.Fatalf("paused profile issued %d requests", res.Accepted)
	}
}
