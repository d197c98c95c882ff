package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture loads testdata/src/<name> under the given pseudo import path.
func loadFixture(t *testing.T, name, importPath string) *Program {
	t.Helper()
	prog, err := LoadDir(filepath.Join("testdata", "src", name), importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	for _, pkg := range prog.Packages {
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("fixture %s does not type-check: %v", name, terr)
		}
	}
	return prog
}

func findingsOn(fs []Finding, analyzer string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Analyzer == analyzer {
			out = append(out, f)
		}
	}
	return out
}

func wantFindingAt(t *testing.T, fs []Finding, line int, msgPart string) {
	t.Helper()
	for _, f := range fs {
		if f.Pos.Line == line && strings.Contains(f.Message, msgPart) {
			return
		}
	}
	t.Errorf("no finding at line %d containing %q; got:\n%s", line, msgPart, renderFindings(fs))
}

func renderFindings(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteString("\n")
	}
	return b.String()
}

func TestSimClockFixture(t *testing.T) {
	prog := loadFixture(t, "simclockbad", "repro/internal/sim")
	got := Run(prog, []*Analyzer{NewSimClock()})
	if len(got) != 5 {
		t.Errorf("want 5 simclock findings, got %d:\n%s", len(got), renderFindings(got))
	}
	lines := map[string]bool{}
	for _, f := range got {
		lines[f.Message[:strings.Index(f.Message, " ")]] = true
	}
	for _, want := range []string{"time.Now", "time.Sleep", "time.After", "time.Since", "global"} {
		if !lines[want] {
			t.Errorf("missing finding for %s:\n%s", want, renderFindings(got))
		}
	}
}

func TestSimClockOutOfScopePackageIsIgnored(t *testing.T) {
	prog := loadFixture(t, "simclockbad", "repro/internal/store")
	if got := Run(prog, []*Analyzer{NewSimClock()}); len(got) != 0 {
		t.Errorf("out-of-scope package should produce no findings, got:\n%s", renderFindings(got))
	}
}

// TestErrDropFixture covers netio's dropped-error rule.
func TestErrDropFixture(t *testing.T) {
	prog := loadFixture(t, "errdropbad", "repro/internal/transport")
	got := Run(prog, []*Analyzer{NewNetIO()})
	if len(got) != 5 {
		t.Errorf("want 5 netio findings, got %d:\n%s", len(got), renderFindings(got))
	}
	wantFindingAt(t, got, 16, "c.Close is silently discarded")
	wantFindingAt(t, got, 21, "c.SetDeadline is silently discarded")
	wantFindingAt(t, got, 26, "w.Write is silently discarded")
	wantFindingAt(t, got, 31, "deferred w.Write discards its error")
	wantFindingAt(t, got, 66, "c.WriteToUDPAddrPort is silently discarded")
}

func TestErrDropOutOfScopePackageIsIgnored(t *testing.T) {
	prog := loadFixture(t, "errdropbad", "repro/internal/metrics")
	if got := Run(prog, []*Analyzer{NewNetIO()}); len(got) != 0 {
		t.Errorf("out-of-scope package should produce no findings, got:\n%s", renderFindings(got))
	}
}

// TestDeadlineFixture covers netio's deadline rule.
func TestDeadlineFixture(t *testing.T) {
	prog := loadFixture(t, "deadlinebad", "repro/internal/transport")
	got := Run(prog, []*Analyzer{NewNetIO()})
	if len(got) != 2 {
		t.Errorf("want 2 netio findings, got %d:\n%s", len(got), renderFindings(got))
	}
	wantFindingAt(t, got, 14, "runs without a deadline")
	wantFindingAt(t, got, 40, "runs without a deadline")
	for _, f := range got {
		switch f.Pos.Line {
		case 22, 30, 35, 49:
			t.Errorf("unexpected finding on negative-case line %d: %s", f.Pos.Line, f.Message)
		}
	}
}

func TestDeadlineScope(t *testing.T) {
	prog := loadFixture(t, "deadlinebad", "repro/internal/sim")
	got := Run(prog, []*Analyzer{NewNetIO()})
	if len(got) != 0 {
		t.Errorf("netio fired outside its scope:\n%s", renderFindings(got))
	}
}

// TestSuppression proves the //lint:ignore mechanics: a correct directive
// silences exactly its analyzer, a directive for the wrong analyzer
// suppresses nothing, and a malformed directive and a directive that
// suppresses no finding are themselves reported.
func TestSuppression(t *testing.T) {
	dir := t.TempDir()
	src := `package fixture

import "time"

func suppressedTrailing() time.Time {
	return time.Now() //lint:ignore simclock reason on the same line
}

func suppressedAbove() time.Time {
	//lint:ignore simclock reason on the line above
	return time.Now()
}

func wrongAnalyzer() time.Time {
	//lint:ignore netio wrong analyzer name must not silence simclock
	return time.Now()
}

func missingReason() time.Time {
	//lint:ignore simclock
	return time.Now()
}

func unsuppressed() time.Time {
	return time.Now()
}

func unusedDirective() time.Time {
	//lint:ignore simclock nothing on the next line reads the clock
	return time.Time{}
}
`
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := LoadDir(dir, "repro/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	got := Run(prog, Analyzers())

	sim := findingsOn(got, "simclock")
	// wrongAnalyzer line 16, missingReason line 21 (malformed directives do
	// not suppress), unsuppressed line 25.
	if len(sim) != 3 {
		t.Errorf("want 3 surviving simclock findings, got %d:\n%s", len(sim), renderFindings(got))
	}
	wantFindingAt(t, sim, 16, "time.Now")
	wantFindingAt(t, sim, 21, "time.Now")
	wantFindingAt(t, sim, 25, "time.Now")

	malformed := findingsOn(got, "lint")
	want := 0
	for _, f := range malformed {
		if strings.Contains(f.Message, "malformed") {
			want++
		}
	}
	if want != 1 {
		t.Errorf("want 1 malformed-directive finding, got:\n%s", renderFindings(malformed))
	}

	// The simclock directive on line 29 matches nothing; those on lines 6
	// and 10 each silence a finding, and netio does not run in this
	// package, so line 15's is never consulted.
	var unused []Finding
	for _, f := range malformed {
		if strings.Contains(f.Message, "suppresses no") {
			unused = append(unused, f)
		}
	}
	if len(unused) != 1 {
		t.Errorf("want 1 unused-directive finding, got:\n%s", renderFindings(malformed))
	}
	wantFindingAt(t, unused, 29, "//lint:ignore simclock suppresses no simclock finding")
}

func TestModulePathAt(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mp, err := readModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	if mp != "repro" {
		t.Errorf("module path = %q, want repro", mp)
	}
}
