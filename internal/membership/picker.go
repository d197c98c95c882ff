package membership

import "fmt"

// Pick returns the partition index of key among n backends: Lamping &
// Veach's jump consistent hash (arXiv:1406.2294) over a 64-bit FNV-1a hash
// of the key. Going from n to n+1 backends moves exactly the keys that map
// to the new backend (~K/(n+1) of them); no key moves between pre-existing
// backends. It returns ErrNoBackends when n <= 0.
//
// Pick is the only key→owner mapping: every router and the cluster's
// bucket handoff must agree on it, so it is not configurable. FNV-1a is
// computed over the key's bytes in place (as table.hashFor does), so a key
// held as a string or as bytes has the same owner, and the pick is
// allocation-free regardless of key length.
//
//janus:hotpath
func Pick[K string | []byte](key K, n int) (int, error) {
	if n <= 0 {
		return 0, ErrNoBackends
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return jump(h, n), nil
}

// jump is the core loop of the paper's ch(key, num_buckets), verbatim from
// arXiv:1406.2294 with the LCG constant 2862933555777941757.
//
//janus:hotpath
func jump(key uint64, n int) int {
	var b, j int64 = -1, 0
	for j < int64(n) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// picker wraps Pick in a value with a Pick method, for NewPicker.
type picker struct{}

func (picker) Pick(key string, n int) (int, error) { return Pick(key, n) }

// NewPicker returns a value whose Pick method is Pick. Its one caller is
// benchmark/layers.go (the membership.pick layer), which asks for kind "";
// any other kind is an error.
func NewPicker(kind string) (picker, error) {
	if kind != "" {
		return picker{}, fmt.Errorf("membership: unknown picker kind %q: jump hash is the only mapping", kind)
	}
	return picker{}, nil
}
