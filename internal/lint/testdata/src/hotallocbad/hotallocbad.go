// Package hotallocbad is a known-bad fixture for the hotalloc analyzer:
// each //janus:hotpath function below exhibits one class of the allocation
// taxonomy, with negative cases proving value semantics, amortized appends,
// and suppressions stay silent.
package hotallocbad

import (
	"fmt"
)

type item struct {
	key  string
	cost float64
}

type sink struct {
	out   []*item
	index map[string]*item
}

//janus:hotpath
func escapingLiteral(s *sink, k string) {
	s.out = append(s.out, &item{key: k}) // want: escaping composite literal
}

//janus:hotpath
func mapAndMake(s *sink, k string) []byte {
	buf := make([]byte, 64)    // want: make allocates
	s.index[k] = &item{key: k} // want: map assignment + escaping literal
	return buf
}

//janus:hotpath
func conversions(m map[string]int, k []byte) (int, string) {
	n := m[string(k)]     // exempt: map index
	if string(k) == "x" { // exempt: comparison
		n++
	}
	return n, string(k) // want: []byte->string conversion
}

//janus:hotpath
func boxing(v float64) error {
	if v < 0 {
		return fmt.Errorf("negative: %v", v) // want: fmt call
	}
	return nil
}

//janus:hotpath
func grower(k string) []string {
	var out []string
	out = append(out, k) // want: certain-growth append
	return out
}

//janus:hotpath
func closures(k string) func() string {
	return func() string { return k } // want: capturing closure
}

//janus:hotpath
func spawns() {
	go noop() // want: go statement
}

func noop() {}

// stackOnly keeps everything in the frame: no findings.
//
//janus:hotpath
func stackOnly(k string) float64 {
	it := item{key: k}
	tmp := &it
	return tmp.cost
}

// appendAmortized appends onto a caller-owned buffer: no findings.
//
//janus:hotpath
func appendAmortized(dst []byte, b byte) []byte {
	return append(dst, b)
}

// coldHelper allocates but is not annotated; hot callers are charged at
// their call sites by the one-level summary.
func coldHelper(k string) *item {
	return &item{key: k}
}

//janus:hotpath
func callsCold(k string) *item {
	return coldHelper(k) // want: call to coldHelper allocates
}

// suppressedHelper's allocation carries a suppression, so hot callers see
// a clean summary.
func suppressedHelper(k string) *item {
	//lint:ignore hotalloc fixture: cold-path allocation is intentional
	return &item{key: k}
}

//janus:hotpath
func callsSuppressed(k string) *item {
	return suppressedHelper(k) // ok: callee's site is suppressed
}

//janus:hotpath
func suppressedInline(s *sink, k string) {
	//lint:ignore hotalloc fixture: amortized slot reuse
	s.out = append(s.out, &item{key: k})
}

// notHot allocates freely without the annotation: no findings.
func notHot(k string) *item {
	x := &item{key: k}
	go noop()
	return x
}

// noinlineHelper allocates in a body the compiler never inlines, so the
// allocation stays in its own frame; hot callers are charged at the call.
//
//go:noinline
func noinlineHelper(k string) *item {
	return &item{key: k}
}

//janus:hotpath
func callsNoinline(k string) *item {
	return noinlineHelper(k) // want: call to noinlineHelper allocates
}
