package membership

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("user-%d", 1500000001+i)
	}
	return out
}

func TestNewPicker(t *testing.T) {
	p, err := NewPicker("")
	if err != nil {
		t.Fatalf(`NewPicker(""): %v`, err)
	}
	for _, k := range keys(100) {
		got, err1 := p.Pick(k, 7)
		want, err2 := Pick(k, 7)
		if err1 != nil || err2 != nil || got != want {
			t.Fatalf("NewPicker(\"\").Pick(%q, 7) = %d, %v; Pick = %d, %v", k, got, err1, want, err2)
		}
	}
	for _, kind := range []string{"jump", "crc32", "rendezvous"} {
		if _, err := NewPicker(kind); err == nil {
			t.Fatalf("NewPicker(%q) accepted", kind)
		}
	}
}

func TestPickersRejectEmptyView(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := Pick("k", n); !errors.Is(err, ErrNoBackends) {
			t.Fatalf("Pick(k, %d) err = %v, want ErrNoBackends", n, err)
		}
	}
}

// TestPickMatchesFNVReference pins Pick bit for bit to the mapping as first
// written, FNV-1a-64 through hash/fnv and then jump, for the key held as a
// string and as bytes: a key whose owner differed would move on upgrade.
func TestPickMatchesFNVReference(t *testing.T) {
	for _, k := range append(keys(10000), "", "ключ", strings.Repeat("k", 200)) {
		h := fnv.New64a()
		h.Write([]byte(k))
		for n := 1; n <= 64; n++ {
			if got, err := Pick(k, n); err != nil || got != jump(h.Sum64(), n) {
				t.Fatalf("Pick(%q, %d) = %d, %v; reference %d", k, n, got, err, jump(h.Sum64(), n))
			}
			if got, err := Pick([]byte(k), n); err != nil || got != jump(h.Sum64(), n) {
				t.Fatalf("Pick([]byte(%q), %d) = %d, %v; reference %d", k, n, got, err, jump(h.Sum64(), n))
			}
		}
	}
}

func TestPickersDeterministicInRange(t *testing.T) {
	f := func(key string, n uint8) bool {
		nn := int(n%32) + 1
		i, err1 := Pick(key, nn)
		j, err2 := Pick(key, nn)
		return err1 == nil && err2 == nil && i == j && i >= 0 && i < nn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPickerDistribution checks Pick spreads sequential keys within a
// tight band around the uniform share (the Fig 6 property).
func TestPickerDistribution(t *testing.T) {
	const n = 20
	ks := keys(100000)
	counts := make([]int, n)
	for _, k := range ks {
		i, err := Pick(k, n)
		if err != nil {
			t.Fatal(err)
		}
		counts[i]++
	}
	for i, c := range counts {
		pct := float64(c) / float64(len(ks)) * 100
		if pct < 4.0 || pct > 6.0 {
			t.Errorf("partition %d pressure = %.3f%%, outside [4,6]", i, pct)
		}
	}
}

// TestJumpHashMonotonicity is the defining consistent-hash property: going
// from n to n+1 backends moves at most 2K/(n+1) keys (the expectation is
// K/(n+1)), and every moved key lands on the NEW backend — none shuffle
// between pre-existing backends.
func TestJumpHashMonotonicity(t *testing.T) {
	ks := keys(50000)
	for n := 1; n <= 12; n++ {
		moved := 0
		for _, k := range ks {
			a, _ := Pick(k, n)
			b, _ := Pick(k, n+1)
			if a != b {
				moved++
				if b != n {
					t.Fatalf("n=%d: key %q moved %d→%d, not onto new backend %d", n, k, a, b, n)
				}
			}
		}
		bound := 2 * len(ks) / (n + 1)
		if moved > bound {
			t.Errorf("n=%d→%d: moved %d keys, bound 2K/N = %d", n, n+1, moved, bound)
		}
	}
}

func TestViewOwnerAndRemapFraction(t *testing.T) {
	old := View{Epoch: 1, Backends: []string{"a", "b", "c", "d"}}
	next := View{Epoch: 2, Backends: []string{"a", "b", "c", "d", "e"}}
	owner, err := old.Owner("some-key")
	if err != nil || !slices.Contains(old.Backends, owner) {
		t.Fatalf("owner = %q err = %v", owner, err)
	}
	if _, err := (View{}).Owner("k"); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("empty view owner err = %v", err)
	}
	frac := RemapFraction(old, next, 4096)
	if frac <= 0 || frac > 0.25+0.05 {
		t.Fatalf("jump 4→5 remap fraction = %.3f, want ~0.20", frac)
	}
	if frac := RemapFraction(View{}, next, 64); frac != 1 {
		t.Fatalf("empty old view remap = %v, want 1", frac)
	}
}
