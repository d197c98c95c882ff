package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// NewWireCompat guards the wire formats against silent protocol breaks.
//
// Two protocols cross process boundaries: the binary UDP datagrams defined
// by internal/wire (router <-> QoS server), and the gob-encoded HA frames
// (ha.go: haFrame/haEntry, carrying bucket.Rule) used for slave replication
// and bucket handoff. gob in particular derives its encoding from the
// struct definition, so renaming, retyping, reordering, or removing a field
// changes what peers decode — a rolling upgrade would then corrupt or drop
// replicated credit state with no compile error and no test failure.
//
// The analyzer renders each tracked struct's field name/type/order
// signature from the AST, hashes it, and diffs against the checked-in
// golden manifest (internal/lint/wirecompat.golden). Any divergence fails
// the build. Deliberate protocol changes are made by updating the manifest
// in the same commit (janus-vet -write-manifest), which makes every wire
// change explicit in review.
//
// manifestPath overrides the manifest location; "" means
// DefaultManifestPath under the module root.
func NewWireCompat(manifestPath string) *Analyzer {
	a := &Analyzer{
		Name: "wirecompat",
		Doc:  "wire/gob struct signatures must match the golden manifest",
	}
	a.RunModule = func(mp *ModulePass) {
		checkWireCompat(mp, manifestPath)
	}
	return a
}

// DefaultManifestPath is the module-root-relative golden manifest location.
const DefaultManifestPath = "internal/lint/wirecompat.golden"

// trackedStructs lists the structs whose layout is part of a wire contract,
// keyed by module-relative package path.
var trackedStructs = []struct {
	pkgRel string
	names  []string
}{
	{"internal/bucket", []string{"Rule"}}, // embedded in haEntry, gob-encoded
	{"internal/qosserver", []string{"haFrame", "haEntry"}},
	{"internal/wire", []string{"Request", "Response"}},
}

func checkWireCompat(mp *ModulePass, manifestPath string) {
	prog := mp.Prog
	got := ComputeManifest(prog)
	if len(got) == 0 {
		// None of the tracked packages were loaded (e.g. janus-vet run on a
		// single unrelated directory): nothing to check.
		return
	}
	path := manifestPath
	if path == "" {
		if prog.ModuleRoot == "" {
			return
		}
		path = filepath.Join(prog.ModuleRoot, filepath.FromSlash(DefaultManifestPath))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		mp.ReportAt(manifestPos(path), "cannot read golden wire manifest: %v (generate it with `janus-vet -write-manifest`)", err)
		return
	}
	want := make(map[string]string) // struct key -> full line
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, _, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		want[strings.TrimSpace(key)] = line
	}
	seen := make(map[string]bool)
	for _, line := range got {
		key, _, _ := strings.Cut(line, ":")
		seen[key] = true
		wantLine, ok := want[key]
		if !ok {
			mp.ReportAt(manifestPos(path), "wire struct %s is not in the golden manifest; if the new layout is intended, run `janus-vet -write-manifest`", key)
			continue
		}
		if wantLine != line {
			mp.ReportAt(manifestPos(path), "wire-breaking change in %s:\n\tmanifest: %s\n\tsource:   %s\n\tif the protocol change is intended, update the manifest with `janus-vet -write-manifest`",
				key, wantLine, line)
		}
	}
	for key := range want {
		if !seen[key] && trackedPackageLoaded(prog, key) {
			mp.ReportAt(manifestPos(path), "wire struct %s is in the golden manifest but missing from the source tree", key)
		}
	}
}

func manifestPos(path string) token.Position {
	return token.Position{Filename: path, Line: 1, Column: 1}
}

// trackedPackageLoaded reports whether the package owning the manifest key
// ("internal/wire.Request") was part of the load, so partial loads do not
// produce false "missing struct" findings.
func trackedPackageLoaded(prog *Program, key string) bool {
	pkgRel, _, ok := strings.Cut(key, ".")
	if !ok {
		return false
	}
	for _, pkg := range prog.Packages {
		if pkg.Path == pkgRel || strings.HasSuffix(pkg.Path, "/"+pkgRel) {
			return true
		}
	}
	return false
}

// ComputeManifest renders the current signature line for every tracked
// struct found in prog, sorted. Line format:
//
//	<pkgRel>.<Struct>: sig=<crc32> Field Type; Field Type; ...
func ComputeManifest(prog *Program) []string {
	var out []string
	for _, t := range trackedStructs {
		var pkg *Package
		for _, p := range prog.Packages {
			if p.Path == t.pkgRel || strings.HasSuffix(p.Path, "/"+t.pkgRel) {
				pkg = p
				break
			}
		}
		if pkg == nil {
			continue
		}
		for _, name := range t.names {
			st := findStruct(pkg, name)
			if st == nil {
				continue
			}
			sig := structSignature(st)
			out = append(out, fmt.Sprintf("%s.%s: sig=%08x %s", t.pkgRel, name, crc32.ChecksumIEEE([]byte(sig)), sig))
		}
	}
	sort.Strings(out)
	return out
}

func findStruct(pkg *Package, name string) *ast.StructType {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return st
				}
			}
		}
	}
	return nil
}

// structSignature renders the ordered field name/type signature. Multiple
// names in one field declaration expand in order; embedded fields render as
// their type alone. Struct tags participate (gob ignores them today, but a
// future codec may not).
func structSignature(st *ast.StructType) string {
	var parts []string
	for _, f := range st.Fields.List {
		typ := exprString(f.Type)
		if len(f.Names) == 0 {
			parts = append(parts, typ)
			continue
		}
		for _, n := range f.Names {
			p := n.Name + " " + typ
			if f.Tag != nil {
				p += " " + f.Tag.Value
			}
			parts = append(parts, p)
		}
	}
	return strings.Join(parts, "; ")
}

// WriteManifest regenerates the golden manifest for prog at path ("" uses
// the default under the module root).
func WriteManifest(prog *Program, path string) error {
	if path == "" {
		if prog.ModuleRoot == "" {
			return fmt.Errorf("lint: no module root; pass an explicit manifest path")
		}
		path = filepath.Join(prog.ModuleRoot, filepath.FromSlash(DefaultManifestPath))
	}
	lines := ComputeManifest(prog)
	var b strings.Builder
	b.WriteString("# Golden wire-format manifest, enforced by the wirecompat analyzer.\n")
	b.WriteString("# A mismatch means a wire-breaking struct edit; regenerate deliberately\n")
	b.WriteString("# with `janus-vet -write-manifest` and call the change out in review.\n")
	for _, l := range lines {
		b.WriteString(l)
		b.WriteString("\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
