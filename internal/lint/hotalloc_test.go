package lint

import "testing"

// TestHotAllocFixture walks the allocation taxonomy: each positive case in
// the fixture is one class of heap allocation inside a //janus:hotpath
// function, and the negatives prove stack-only code, amortized appends,
// and suppressed sites (inline and in callee summaries) stay silent.
func TestHotAllocFixture(t *testing.T) {
	prog := loadFixture(t, "hotallocbad", "repro/internal/hotallocbad")
	got := Run(prog, []*Analyzer{NewHotAlloc()})
	if len(got) != 10 {
		t.Errorf("want 10 hotalloc findings, got %d:\n%s", len(got), renderFindings(got))
	}
	wantFindingAt(t, got, 23, "escaping composite literal")
	wantFindingAt(t, got, 28, "make allocates")
	wantFindingAt(t, got, 29, "map assignment may grow the map")
	wantFindingAt(t, got, 29, "escaping composite literal")
	wantFindingAt(t, got, 39, "conversion copies and allocates")
	wantFindingAt(t, got, 45, "fmt.Errorf formats and allocates")
	wantFindingAt(t, got, 53, "append to a provably empty local slice")
	wantFindingAt(t, got, 59, "function literal captures variables")
	wantFindingAt(t, got, 64, "go statement allocates a goroutine")
	wantFindingAt(t, got, 93, "call to coldHelper allocates")
	for _, f := range got {
		switch f.Pos.Line {
		case 73, 74, 75, 82, 105, 111, 116, 117:
			t.Errorf("unexpected finding on negative-case line %d: %s", f.Pos.Line, f.Message)
		}
	}
}

// TestHotAllocExemptConversions pins the map-index and comparison
// exemptions: the only conversion finding in the fixture's conversions()
// is the returned string(k), not the exempt uses on earlier lines.
func TestHotAllocExemptConversions(t *testing.T) {
	prog := loadFixture(t, "hotallocbad", "repro/internal/hotallocbad")
	got := Run(prog, []*Analyzer{NewHotAlloc()})
	for _, f := range got {
		if f.Pos.Line == 35 || f.Pos.Line == 36 {
			t.Errorf("conversion exemption failed at line %d: %s", f.Pos.Line, f.Message)
		}
	}
}
