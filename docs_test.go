package repro

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// docFiles are the documents that describe the tree as it is. Every path,
// test name, metric, flag, DESIGN.md section and BENCH_*.json ledger they
// name must exist. ROADMAP, CHANGES, PAPER, PAPERS and SNIPPETS are
// planning and history, and benchmark/README.md changes only with the
// benchmark, so none of them is checked.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "doc.go"}

// A docRef is one stale reference: where it is, what kind it is, and the
// name that does not resolve.
type docRef struct {
	file string
	line int
	kind string
	name string
}

func (r docRef) String() string { return fmt.Sprintf("%s:%d: %s: %s", r.file, r.line, r.kind, r.name) }

// docIndex is what the tree declares, for references to resolve against.
type docIndex struct {
	tests    []string                   // Test…, Benchmark… and Fuzz… functions in _test.go files
	metrics  map[string]bool            // "janus_…" string literals in non-test Go under internal/ and cmd/
	flags    map[string]map[string]bool // binary → the flags its cmd/<binary> defines with flag.*
	sections map[string]bool            // DESIGN.md heading numbers: "3", "3.2"
	// pointerFiles are the files outside docFiles whose DESIGN.md §
	// pointers and BENCH_*.json ledgers are checked: the Makefile, CI, and
	// every Go file but the benchmark's (benchmark/ changes only with the
	// benchmark) and docs_test.go, whose planted references are stale on
	// purpose.
	pointerFiles []string
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

var (
	reTestDecl   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	reMetricLit  = regexp.MustCompile(`"(janus_[a-z0-9_]+)"`)
	reFlagDecl   = regexp.MustCompile(`\bflag\.[A-Z]\w*\((?:&\w+,\s*)?"([^"]+)"`)
	reHeading    = regexp.MustCompile(`(?m)^#{2,4} (\d+(?:\.\d+)?)\.? `)
	rePath       = regexp.MustCompile("(?:^|[^\\w/.-])((?:internal|cmd|examples|scripts|chaostest)(?:/[\\w-]+)*/?(?:\\.[a-z]+)?)")
	reTestRef    = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(\*|…)?`)
	reMetricRef  = regexp.MustCompile(`\b(janus_[a-z0-9_]*)(\*)?`)
	reFlag       = regexp.MustCompile("(?:^|[\\s`\\[(])--?([a-z][a-z0-9-]*)")
	reDesignRef  = regexp.MustCompile(`DESIGN(?:\.md)?\s+§(\d+(?:\.\d+)?)`)
	reSelfRef    = regexp.MustCompile(`§(\d+(?:\.\d+)?)`)
	reLedger     = regexp.MustCompile(`BENCH_[A-Za-z_]+\.json`)
	reBinaryName = regexp.MustCompile("(?:^|[\\s`(\\[])(?:bin/|go run \\./cmd/)?(janus[a-z-]*)\\b")
)

// loadDocIndex walks the tree once. It skips dot directories but .github:
// .git, and the benchmark's build directory of other modules.
func loadDocIndex(t *testing.T) *docIndex {
	t.Helper()
	ix := &docIndex{
		metrics:      map[string]bool{},
		flags:        map[string]map[string]bool{},
		sections:     map[string]bool{},
		pointerFiles: []string{"Makefile"},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path != "." && path != ".github" && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasPrefix(path, ".github/") || strings.HasSuffix(path, ".go") &&
			!strings.HasPrefix(path, "benchmark/") && path != "doc.go" && path != "docs_test.go" {
			ix.pointerFiles = append(ix.pointerFiles, path)
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range reTestDecl.FindAllSubmatch(src, -1) {
				ix.tests = append(ix.tests, string(m[1]))
			}
			return nil
		}
		if strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/") {
			for _, m := range reMetricLit.FindAllSubmatch(src, -1) {
				ix.metrics[string(m[1])] = true
			}
		}
		if parts := strings.Split(path, "/"); len(parts) == 3 && parts[0] == "cmd" {
			if ix.flags[parts[1]] == nil {
				ix.flags[parts[1]] = map[string]bool{}
			}
			for _, m := range reFlagDecl.FindAllSubmatch(src, -1) {
				ix.flags[parts[1]][string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range reHeading.FindAllSubmatch(design, -1) {
		ix.sections[string(m[1])] = true
	}
	return ix
}

// hasTest reports whether a test function named name, or starting with it
// when prefix is set, is declared.
func (ix *docIndex) hasTest(name string, prefix bool) bool {
	for _, d := range ix.tests {
		if d == name || prefix && strings.HasPrefix(d, name) {
			return true
		}
	}
	return false
}

// hasMetric reports whether name is a registered series: as written, with
// a histogram's _bucket, _sum or _count suffix removed, or, for a name
// written as a family prefix (janus_lb_*), as the prefix of one.
func (ix *docIndex) hasMetric(name string, prefix bool) bool {
	if ix.metrics[name] {
		return true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && ix.metrics[base] {
			return true
		}
	}
	if prefix || strings.HasSuffix(name, "_") {
		for m := range ix.metrics {
			if strings.HasPrefix(m, name) {
				return true
			}
		}
	}
	return false
}

// logicalLines joins backslash-continued lines, so that a command line
// split over several reads as one. Each joined line keeps the number of
// its first physical line.
func logicalLines(text string) (lines []string, numbers []int) {
	phys := strings.Split(text, "\n")
	for i := 0; i < len(phys); i++ {
		line, n := phys[i], i+1
		for strings.HasSuffix(line, "\\") && i+1 < len(phys) {
			i++
			line = strings.TrimSuffix(line, "\\") + " " + phys[i]
		}
		lines, numbers = append(lines, line), append(numbers, n)
	}
	return lines, numbers
}

// checkDoc returns the stale references in one document.
func (ix *docIndex) checkDoc(file, text string) []docRef {
	var out []docRef
	lines, numbers := logicalLines(text)
	for i, line := range lines {
		stale := func(kind, name string) { out = append(out, docRef{file, numbers[i], kind, name}) }
		for _, m := range rePath.FindAllStringSubmatch(line, -1) {
			if p := strings.TrimSuffix(m[1], "/"); !exists(p) {
				stale("path", p)
			}
		}
		for _, m := range reTestRef.FindAllStringSubmatch(line, -1) {
			if !ix.hasTest(m[1], m[2] != "") {
				stale("test", m[1]+m[2])
			}
		}
		for _, m := range reMetricRef.FindAllStringSubmatch(line, -1) {
			if !ix.hasMetric(m[1], m[2] != "") {
				stale("metric", m[1]+m[2])
			}
		}
		ix.checkFlags(line, stale)
		ix.checkPointers(file, line, stale)
	}
	return out
}

// checkFlags reports each -flag that follows a binary's name on one
// command line and that the binary does not define. The flags of a binary
// run up to the end of the line, a shell separator or a closing backtick.
func (ix *docIndex) checkFlags(line string, stale func(kind, name string)) {
	for _, loc := range reBinaryName.FindAllStringSubmatchIndex(line, -1) {
		bin := line[loc[2]:loc[3]]
		defined, ok := ix.flags[bin]
		if !ok {
			continue // not a binary of cmd/: janus-…-prefixed prose
		}
		rest := line[loc[3]:]
		if end := strings.IndexAny(rest, "&|;#`"); end >= 0 {
			rest = rest[:end]
		}
		if next := reBinaryName.FindStringIndex(rest); next != nil {
			rest = rest[:next[0]]
		}
		for _, m := range reFlag.FindAllStringSubmatch(rest, -1) {
			if !defined[m[1]] {
				stale("flag", bin+" -"+m[1])
			}
		}
	}
}

// checkPointers reports a DESIGN.md section that has no heading and a
// BENCH_*.json ledger that is not in the tree. In DESIGN.md itself a bare
// §N is a pointer to its own section; the paper's sections are roman.
func (ix *docIndex) checkPointers(file, line string, stale func(kind, name string)) {
	re := reDesignRef
	if file == "DESIGN.md" {
		re = reSelfRef
	}
	for _, m := range re.FindAllStringSubmatch(line, -1) {
		if !ix.sections[m[1]] {
			stale("section", "DESIGN.md §"+m[1])
		}
	}
	for _, name := range reLedger.FindAllString(line, -1) {
		if !exists(name) {
			stale("ledger", name)
		}
	}
}

// TestDocsReferencesAreLive fails on every reference in the documents that
// no longer resolves in the tree, as file:line: kind: name.
func TestDocsReferencesAreLive(t *testing.T) {
	ix := loadDocIndex(t)
	var stale []docRef
	for _, f := range docFiles {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		stale = append(stale, ix.checkDoc(f, string(src))...)
	}
	for _, f := range ix.pointerFiles {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(src), "\n")
		for i, line := range lines {
			ix.checkPointers(f, line, func(kind, name string) { stale = append(stale, docRef{f, i + 1, kind, name}) })
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].String() < stale[j].String() })
	for _, r := range stale {
		t.Error(r)
	}
}

// TestDocsReportStaleReferences plants one stale reference of each kind,
// beside live ones of the same kind, and requires exactly it reported.
func TestDocsReportStaleReferences(t *testing.T) {
	ix := loadDocIndex(t)
	for _, tc := range []struct {
		kind, text, want string
	}{
		{"path", "See `internal/qosserver/server.go:12`.\n\nThe engine is `internal/nosuch/engine.go:40`.",
			"planted.md:3: path: internal/nosuch/engine.go"},
		{"test", "`TestDocsReportStaleReferences`, `BenchmarkAblation*`, `TestFig7…`\n`TestNoSuchThing` pins it.",
			"planted.md:2: test: TestNoSuchThing"},
		{"test prefix", "`BenchmarkAblation*` and `TestNoSuchPrefix…`",
			"planted.md:1: test: TestNoSuchPrefix…"},
		{"metric", "`janus_qos_sojourn_seconds_bucket{le=\"+Inf\"}`, `janus_lb_*`\n\n\n`janus_qos_no_such_total` counts it.",
			"planted.md:4: metric: janus_qos_no_such_total"},
		{"flag", "```\nbin/janusd -addr 127.0.0.1:7101 \\\n    -codel-target 1ms -no-such-flag 3 &\n```",
			"planted.md:2: flag: janusd -no-such-flag"},
		{"flag go run", "go run ./cmd/janus-router -addr :0 -backends x -picker crc32",
			"planted.md:1: flag: janus-router -picker"},
		{"section", "DESIGN.md §2 lists the figures.\nSee DESIGN.md §99.1 for the rest.",
			"planted.md:2: section: DESIGN.md §99.1"},
		{"ledger", "No BENCH_*.json remains.\nRead BENCH_nosuch.json.",
			"planted.md:2: ledger: BENCH_nosuch.json"},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			got := ix.checkDoc("planted.md", tc.text)
			if len(got) != 1 || got[0].String() != tc.want {
				t.Fatalf("reported %v, want [%s]", got, tc.want)
			}
		})
	}
}
