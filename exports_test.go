package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods of internal/*
// packages that no non-test file outside their own package mentions, and
// why each stays exported anyway.
var exportAllowlist = map[string]string{
	"failpoint.DisarmAll": "tests of other packages reset every failpoint in cleanup",
	"failpoint.Lookup":    "chaos tests find a site by name to read its Hits",
	"failpoint.Hits":      "chaos tests assert that an armed site fired",
	"h1.Idle":             "the client's exchange tests count a pool's idle connections",
	"lint.Import":         "moduleImporter implements go/types.Importer",
	"metrics.Sum":         "the qosserver and chaos tests check exact sojourn sums",
	"proctest.Exited":     "process tests read a daemon's exit status after a signal",
	"proctest.Logged":     "process tests wait for a daemon's log line after a signal",
	"trace.MarshalJSON":   "HexID implements json.Marshaler",
	"trace.UnmarshalJSON": "HexID implements json.Unmarshaler",
}

// TestInternalExportsHaveOutsideCallers keeps product packages free of API
// that only their own tests use. Every exported function or method declared
// in a non-test file of internal/<pkg> must be named, as a whole word, by a
// non-test Go file outside internal/<pkg>/, or be on exportAllowlist. A name
// only the package itself calls is unexported; one only tests call moves
// into a _test.go file or goes. The check is by name, so a method shares its
// mention with every other identifier of the same spelling.
func TestInternalExportsHaveOutsideCallers(t *testing.T) {
	type file struct {
		path  string
		words map[string]bool
	}
	var files []file
	decls := map[string][]string{} // "pkg.Name" → declaring files
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, and the benchmark's build directory of other modules
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		files = append(files, file{path: path, words: wordsOf(src)})
		dir, base := filepath.Split(path)
		if parts := strings.Split(strings.TrimSuffix(dir, "/"), "/"); len(parts) != 2 || parts[0] != "internal" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				key := strings.TrimPrefix(strings.TrimSuffix(dir, "/"), "internal/") + "." + fn.Name.Name
				decls[key] = append(decls[key], base)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	for key := range decls {
		pkg, name, _ := strings.Cut(key, ".")
		mentioned := false
		for _, f := range files {
			if !strings.HasPrefix(f.path, "internal/"+pkg+"/") && f.words[name] {
				mentioned = true
				break
			}
		}
		_, allowed := exportAllowlist[key]
		switch {
		case !mentioned && !allowed:
			unused = append(unused, key+" ("+strings.Join(decls[key], ", ")+")")
		case mentioned && allowed:
			t.Errorf("%s is on exportAllowlist but a non-test file outside its package names it; drop it from the list", key)
		}
	}
	for key := range exportAllowlist {
		if _, ok := decls[key]; !ok {
			t.Errorf("%s is on exportAllowlist but declares nothing; drop it from the list", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("internal/%s is exported but no non-test file outside its package names it: unexport it, move it into a _test.go file, delete it, or add it to exportAllowlist with the reason", u)
	}
}

// wordsOf returns the set of words in src, a word being a run of letters,
// digits and underscores, as grep -w counts them.
func wordsOf(src []byte) map[string]bool {
	words := map[string]bool{}
	start := -1
	for i := 0; i <= len(src); i++ {
		if i < len(src) && isWordByte(src[i]) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			words[string(src[start:i])] = true
			start = -1
		}
	}
	return words
}

func isWordByte(c byte) bool {
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c >= 0x80
}
