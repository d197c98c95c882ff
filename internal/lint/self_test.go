package lint

import (
	"sync"
	"testing"
)

// loadSelf loads the real module once and shares it across the self-tests;
// the load type-checks the whole tree, which is the expensive part.
var loadSelf = sync.OnceValues(func() (*Program, error) {
	root, err := FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return LoadModule(root)
})

// TestTreeIsClean runs the full analyzer suite over the real module — the
// same check `janus-vet ./...` and `make lint` perform — so a violation
// anywhere in the tree fails plain `go test ./...`. This is what keeps the
// gate green after it lands: wall-clock leaks into simulation packages,
// silently dropped or undeadlined socket I/O, and allocating hot paths all
// surface here.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	prog, err := loadSelf()
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Packages) < 20 {
		t.Fatalf("loader found only %d packages; module walk is broken", len(prog.Packages))
	}
	for _, f := range Run(prog, Analyzers()) {
		t.Errorf("%s", f)
	}
}

// TestTreeTypeChecks asserts the in-module type-checker resolves every
// package: analyzers degrade to syntactic matching without type info, so a
// silent regression here would weaken the precise checks without failing
// them.
func TestTreeTypeChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	prog, err := loadSelf()
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range prog.Packages {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: %v", pkg.Path, terr)
		}
	}
}
