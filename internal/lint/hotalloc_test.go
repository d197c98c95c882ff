package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fixtureFindings runs hotalloc over the fixture once for the tests that
// read it: every run compiles the fixture.
var fixtureFindings = sync.OnceValues(func() ([]Finding, error) {
	prog, err := loadDir(filepath.Join("testdata", "src", "hotallocbad"), "repro/internal/hotallocbad")
	if err != nil {
		return nil, err
	}
	return Run(prog, []*Analyzer{newHotAlloc()}), nil
})

func hotallocFixture(t *testing.T) []Finding {
	t.Helper()
	got, err := fixtureFindings()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestHotAllocFixture walks the allocation classes: each positive case in
// the fixture is one heap allocation inside a //janus:hotpath function, as
// the compiler's escape analysis or one of the three syntactic rules finds
// it, and the negatives prove stack-only code, amortized appends, and
// suppressed sites (inline, in an inlined callee, and in a callee summary)
// stay silent.
func TestHotAllocFixture(t *testing.T) {
	got := hotallocFixture(t)
	if len(got) != 11 {
		t.Errorf("want 11 hotalloc findings, got %d:\n%s", len(got), renderFindings(got))
	}
	wantFindingAt(t, got, 23, "&item{...} escapes to heap")
	wantFindingAt(t, got, 28, "make([]byte, 64) escapes to heap")
	wantFindingAt(t, got, 29, "map assignment may grow the map")
	wantFindingAt(t, got, 29, "&item{...} escapes to heap")
	wantFindingAt(t, got, 39, "string(k) escapes to heap")
	wantFindingAt(t, got, 45, "v escapes to heap")
	wantFindingAt(t, got, 53, "append to a provably empty local slice")
	wantFindingAt(t, got, 59, "func literal escapes to heap")
	wantFindingAt(t, got, 64, "go statement allocates a goroutine")
	wantFindingAt(t, got, 93, "inlined from hotallocbad.go:88")
	wantFindingAt(t, got, 131, "call to noinlineHelper allocates")
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
	for _, f := range hotallocFixture(t) {
		if f.Pos.Line == 35 || f.Pos.Line == 36 {
			t.Errorf("conversion exemption failed at line %d: %s", f.Pos.Line, f.Message)
		}
	}
}

// useGoCommand points hotalloc at another go command for one test.
func useGoCommand(t *testing.T, cmd string) {
	t.Helper()
	old := goCommand
	goCommand = cmd
	t.Cleanup(func() { goCommand = old })
}

// wantFailClosed asserts that hotalloc reported msgPart rather than
// passing.
func wantFailClosed(t *testing.T, prog *Program, msgPart string) {
	t.Helper()
	got := findingsOn(Run(prog, []*Analyzer{newHotAlloc()}), "hotalloc")
	for _, f := range got {
		if strings.Contains(f.Message, msgPart) {
			return
		}
	}
	t.Errorf("want a hotalloc finding containing %q, got:\n%s", msgPart, renderFindings(got))
}

func TestHotAllocFailsClosedWhenGoCannotRun(t *testing.T) {
	useGoCommand(t, filepath.Join(t.TempDir(), "no-such-go"))
	wantFailClosed(t, loadFixture(t, "hotallocbad", "repro/internal/hotallocbad"), "escape analysis did not run")
}

func TestHotAllocFailsClosedWhenCompileFails(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module repro\n\ngo 1.22\n",
		"broken.go": `package broken

//janus:hotpath
func hot(k string) int {
	return k // does not compile
}
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := loadDir(dir, "repro/internal/broken")
	if err != nil {
		t.Fatal(err)
	}
	wantFailClosed(t, prog, "escape analysis did not run")
}

func TestHotAllocFailsClosedWhenNothingIsLogged(t *testing.T) {
	noop, err := exec.LookPath("true")
	if err != nil {
		t.Skip("no true command to stand in for a go command that logs nothing")
	}
	useGoCommand(t, noop)
	wantFailClosed(t, loadFixture(t, "hotallocbad", "repro/internal/hotallocbad"), "the compiler logged nothing")
}
