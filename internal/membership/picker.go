package membership

import (
	"fmt"
	"hash/crc32"
	"hash/fnv"
)

// Picker maps a QoS key to a partition index in [0, n). Implementations
// must be deterministic and safe for concurrent use.
type Picker interface {
	// Kind names the strategy for configuration and metrics.
	Kind() Kind
	// Pick returns the partition index of key among n backends. It returns
	// ErrNoBackends when n <= 0.
	Pick(key string, n int) (int, error)
}

// Kind names a Picker implementation for configuration.
type Kind string

// Supported picker kinds.
const (
	// KindCRC32 is the paper's CRC32(key) mod N formula (§III-B). Changing
	// N remaps ~(N-1)/N of all keys.
	KindCRC32 Kind = "crc32"
	// KindJump is jump consistent hash (arXiv:1406.2294). Appending a
	// backend moves only ~K/N keys, all of them onto the new backend.
	KindJump Kind = "jump"
)

// NewPicker constructs a picker of the given kind; the empty kind selects
// KindCRC32 (the legacy mapping).
func NewPicker(kind Kind) (Picker, error) {
	switch kind {
	case KindCRC32, "":
		return CRC32Mod{}, nil
	case KindJump:
		return JumpHash{}, nil
	default:
		return nil, fmt.Errorf("membership: unknown picker kind %q", kind)
	}
}

// CRC32Mod is the paper's routing function: seed = CRC32(key), index =
// seed mod N. It reproduces the legacy router's indices exactly.
type CRC32Mod struct{}

// Kind implements Picker.
func (CRC32Mod) Kind() Kind { return KindCRC32 }

// Pick implements Picker.
func (CRC32Mod) Pick(key string, n int) (int, error) {
	if n <= 0 {
		return 0, ErrNoBackends
	}
	return int(crc32.ChecksumIEEE([]byte(key)) % uint32(n)), nil
}

// JumpHash is Lamping & Veach's jump consistent hash over a 64-bit FNV-1a
// hash of the key. Its defining property: going from n to n+1 backends
// moves exactly the keys that map to the new backend (~K/(n+1) of them),
// and no key moves between pre-existing backends.
type JumpHash struct{}

// Kind implements Picker.
func (JumpHash) Kind() Kind { return KindJump }

// Pick implements Picker.
func (JumpHash) Pick(key string, n int) (int, error) {
	if n <= 0 {
		return 0, ErrNoBackends
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(key)) // a hash.Hash Write never returns an error
	return jump(h.Sum64(), n), nil
}

// jump is the core loop of the paper's ch(key, num_buckets), verbatim from
// arXiv:1406.2294 with the LCG constant 2862933555777941757.
func jump(key uint64, n int) int {
	var b, j int64 = -1, 0
	for j < int64(n) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}
