package graphxmt_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportAllow names the exported identifiers under internal/ that only
// other packages' tests use, with the reason each is exported anyway. Keep
// it short: what only its own package's tests use is unexported and, for
// its external tests, re-exported from an export_test.go.
var deadExportAllow = map[string]string{
	"internal/bspalg.NewKCoreProgram":       "core's determinism matrix runs an aux-state program",
	"internal/bspalg.NewLPProgram":          "core's broadcast and direction tests run a label-exchanging program without a combiner",
	"internal/bspalg.PageRankProgram":       "core's tests run the Sum-combining dense program",
	"internal/bspalg.TCProgram":             "core's tests run the per-edge-unicast program",
	"internal/ckpt.Decode":                  "core's determinism matrix decodes each boundary's payload as it is written",
	"internal/faultinject.ErrInjectedWrite": "core's recovery test checks that a WriteError wraps the injected failure",
	"internal/faultinject.FlipBit":          "ckpt's and core's tests corrupt checkpoint files",
	"internal/faultinject.TruncateTail":     "ckpt's and core's tests tear checkpoint files",
	"internal/gen.BinaryTree":               "a tree fixture for graphct's and bspalg's tests",
	"internal/metrics.ValidateExposition":   "live's tests validate the /metrics body",
	"internal/obs.NewChrome":                "live's tests feed the Chrome sink",
	"internal/obs.NewJSONL":                 "core's and live's tests read the JSONL event stream",
	"internal/obs/live.NewServer":           "core's determinism test and live's tests start a server without flags",
}

// TestNoDeadExports fails on any exported package-level identifier under
// internal/ that nothing outside its package uses. An identifier is live if
//
//   - non-test code in another package of the module names it,
//   - it is a type reachable from the exported signatures, exported fields
//     or exported methods of a live identifier (transitively),
//   - it is a const or var whose type is a live named type of its own
//     package (enum values),
//   - it is a type that implements error (typed failures are checked with
//     errors.As), or
//   - it is on deadExportAllow.
//
// Methods and struct fields are out of scope: interface satisfaction uses
// them without naming them.
func TestNoDeadExports(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if len(deadExportAllow) > 15 {
		t.Errorf("deadExportAllow has %d entries; keep it at 15 or fewer", len(deadExportAllow))
	}
	dead, problems, cands := loadModule(t, root).deadExports(deadExportAllow)
	for _, p := range problems {
		t.Error(p)
	}
	if len(dead) > 0 {
		t.Errorf("%d of %d exported identifiers under internal/ are used by nothing outside their package; "+
			"delete or unexport them (or, for cross-package test support only, add them to deadExportAllow with a reason):\n\t%s",
			len(dead), cands, strings.Join(dead, "\n\t"))
	}
}

// deadExports applies TestNoDeadExports's rules to the module, with allow as
// the allow-list. It returns the dead identifiers, each as "name (kind,
// file:line)", the allow-list's faults, and the number of candidates.
func (m *module) deadExports(allow map[string]string) (dead, problems []string, candidates int) {
	// Candidates: the exported package-level identifiers under internal/.
	cands := map[string]types.Object{}
	for _, p := range m.pkgs {
		if !m.isInternal(p.types) {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() {
				cands[m.name(obj)] = obj
			}
		}
	}

	live := map[types.Object]bool{}
	var queue []types.Object
	mark := func(obj types.Object) {
		if !live[obj] {
			live[obj] = true
			queue = append(queue, obj)
		}
	}
	r := reach{m: m, mark: mark, seen: map[types.Type]bool{}}
	closure := func() {
		for len(queue) > 0 {
			obj := queue[0]
			queue = queue[1:]
			r.object(obj)
		}
	}
	// Named by non-test code in another package.
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			if o := origin(obj); o.Pkg() != nil && o.Pkg() != p.types && m.isInternal(o.Pkg()) &&
				o.Parent() == o.Pkg().Scope() && o.Exported() {
				mark(o)
			}
		}
	}
	// Error types.
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, obj := range cands {
		if tn, ok := obj.(*types.TypeName); ok &&
			(types.Implements(tn.Type(), errIface) || types.Implements(types.NewPointer(tn.Type()), errIface)) {
			mark(obj)
		}
	}
	closure()
	// The allow-list, whose entries must be needed.
	for name, reason := range allow {
		switch obj := cands[name]; {
		case strings.TrimSpace(reason) == "":
			problems = append(problems, fmt.Sprintf("deadExportAllow[%q] has no reason", name))
		case obj == nil:
			problems = append(problems, fmt.Sprintf("deadExportAllow names %s, which is not an exported identifier under internal/", name))
		case live[obj]:
			problems = append(problems, fmt.Sprintf("deadExportAllow names %s, which is live without it; remove the entry", name))
		default:
			mark(obj)
		}
	}
	sort.Strings(problems)
	closure()
	// Consts and vars of a live named type of their own package.
	for _, obj := range cands {
		switch obj.(type) {
		case *types.Const, *types.Var:
			if n, ok := obj.Type().(*types.Named); ok && n.Obj().Pkg() == obj.Pkg() && live[n.Obj()] {
				live[obj] = true
			}
		}
	}

	for name, obj := range cands {
		if !live[obj] {
			pos := m.fset.Position(obj.Pos())
			rel, _ := filepath.Rel(m.root, pos.Filename)
			dead = append(dead, fmt.Sprintf("%s (%s, %s:%d)", name, kind(obj), filepath.ToSlash(rel), pos.Line))
		}
	}
	sort.Strings(dead)
	return dead, problems, len(cands)
}

// origin returns the generic object behind an instantiated func or var.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func kind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// reach marks the exported named types of the module's internal/ packages
// that a type exposes: through pointers, containers, signatures, exported
// fields, and the exported methods of named types. Unexported named types
// are walked through, since a caller can reach their exported members.
type reach struct {
	m    *module
	mark func(types.Object)
	seen map[types.Type]bool
}

func (r *reach) object(obj types.Object) {
	if tn, ok := obj.(*types.TypeName); ok {
		r.named(tn.Type())
		return
	}
	r.typ(obj.Type())
}

func (r *reach) typ(t types.Type) {
	if t == nil || r.seen[t] {
		return
	}
	r.seen[t] = true
	switch t := t.(type) {
	case *types.Alias:
		r.typ(types.Unalias(t))
	case *types.Named:
		obj := t.Origin().Obj()
		if obj.Pkg() != nil && r.m.isInternal(obj.Pkg()) && obj.Parent() == obj.Pkg().Scope() && obj.Exported() {
			r.mark(obj)
		} else {
			r.named(t)
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			r.typ(t.TypeArgs().At(i))
		}
	case *types.Pointer:
		r.typ(t.Elem())
	case *types.Slice:
		r.typ(t.Elem())
	case *types.Array:
		r.typ(t.Elem())
	case *types.Chan:
		r.typ(t.Elem())
	case *types.Map:
		r.typ(t.Key())
		r.typ(t.Elem())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			r.typ(t.At(i).Type())
		}
	case *types.Signature:
		for i := 0; i < t.TypeParams().Len(); i++ {
			r.typ(t.TypeParams().At(i).Constraint())
		}
		r.typ(t.Params())
		r.typ(t.Results())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() {
				r.typ(f.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			if fn := t.Method(i); fn.Exported() {
				r.typ(fn.Type())
			}
		}
		for i := 0; i < t.NumEmbeddeds(); i++ {
			r.typ(t.EmbeddedType(i))
		}
	case *types.Union:
		for i := 0; i < t.Len(); i++ {
			r.typ(t.Term(i).Type())
		}
	}
}

// named walks a named type's structure and its exported methods.
func (r *reach) named(t types.Type) {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return
	}
	for i := 0; i < n.TypeParams().Len(); i++ {
		r.typ(n.TypeParams().At(i).Constraint())
	}
	r.typ(n.Underlying())
	for i := 0; i < n.NumMethods(); i++ {
		if fn := n.Method(i); fn.Exported() {
			r.typ(fn.Type())
		}
	}
}

// module is the type-checked non-test code of every package in the module.
type module struct {
	root, path string
	fset       *token.FileSet
	std        types.ImporterFrom
	pkgs       map[string]*modPkg // by import path
	dirs       map[string]string  // import path -> directory
}

type modPkg struct {
	types *types.Package
	info  *types.Info
}

func (m *module) isInternal(p *types.Package) bool {
	return strings.HasPrefix(p.Path(), m.path+"/internal/")
}

// name is an identifier's package path below the module, dot, name:
// "internal/graph.Graph".
func (m *module) name(obj types.Object) string {
	return strings.TrimPrefix(obj.Pkg().Path(), m.path+"/") + "." + obj.Name()
}

// loadModule type-checks the non-test code of the module rooted at root.
func loadModule(t *testing.T, root string) *module {
	t.Helper()
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	m := &module{
		root: root,
		path: modulePath(string(gomod)),
		fset: token.NewFileSet(),
		pkgs: map[string]*modPkg{},
		dirs: map[string]string{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil).(types.ImporterFrom)
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); p != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, p)
		m.dirs[path.Join(m.path, filepath.ToSlash(rel))] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ip := range m.dirs {
		if _, err := m.load(ip); err != nil {
			t.Fatal(err)
		}
	}
	for ip, p := range m.pkgs {
		if p == nil {
			delete(m.pkgs, ip) // a directory without Go files
		}
	}
	return m
}

func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	return ""
}

// load type-checks one package of the module from its non-test files; a
// directory without Go files loads as nil.
func (m *module) load(ip string) (*modPkg, error) {
	if p, ok := m.pkgs[ip]; ok {
		return p, nil
	}
	dir := m.dirs[ip]
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			m.pkgs[ip] = nil
			return nil, nil
		}
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p := &modPkg{info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	conf := types.Config{Importer: m}
	p.types, err = conf.Check(ip, m.fset, files, p.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[ip] = p
	return p, nil
}

func (m *module) Import(ip string) (*types.Package, error) {
	return m.ImportFrom(ip, m.root, 0)
}

func (m *module) ImportFrom(ip, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := m.dirs[ip]; !ok {
		return m.std.ImportFrom(ip, dir, mode)
	}
	p, err := m.load(ip)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// TestDeadExportRules runs the checker on small modules, one rule each: a
// planted export is reported by name, and each way of being live keeps an
// export off the list.
func TestDeadExportRules(t *testing.T) {
	cases := []struct {
		name     string
		files    map[string]string // path below the module root -> source
		allow    map[string]string
		dead     []string // "name (kind, file:line)", sorted
		problems []string // substrings, one per allow-list fault, sorted
	}{
		{
			name:  "planted func is reported",
			files: map[string]string{"internal/a/a.go": "package a\n\nfunc Planted() {}\n"},
			dead:  []string{"internal/a.Planted (func, internal/a/a.go:3)"},
		},
		{
			name:  "planted type, const and var are reported",
			files: map[string]string{"internal/a/a.go": "package a\n\ntype T struct{}\n\nconst C = 1\n\nvar V int\n"},
			dead: []string{
				"internal/a.C (const, internal/a/a.go:5)",
				"internal/a.T (type, internal/a/a.go:3)",
				"internal/a.V (var, internal/a/a.go:7)",
			},
		},
		{
			name: "named by another package's non-test code is live",
			files: map[string]string{
				"internal/a/a.go":   "package a\n\nfunc Used() {}\n",
				"internal/b/b.go":   "package b\n\nimport \"example.com/m/internal/a\"\n\nfunc f() { a.Used() }\n",
				"cmd/x/main.go":     "package main\n\nimport \"example.com/m/internal/a\"\n\nfunc main() { a.Used() }\n",
				"internal/a/doc.go": "// Package a is a fixture.\npackage a\n",
			},
		},
		{
			name: "named only by its own package is dead",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc Helper() {}\n\nfunc f() { Helper() }\n",
			},
			dead: []string{"internal/a.Helper (func, internal/a/a.go:3)"},
		},
		{
			name: "named only by another package's test is dead",
			files: map[string]string{
				"internal/a/a.go":      "package a\n\nfunc Helper() {}\n",
				"internal/b/b.go":      "package b\n",
				"internal/b/b_test.go": "package b\n\nimport \"example.com/m/internal/a\"\n\nfunc f() { a.Helper() }\n",
			},
			dead: []string{"internal/a.Helper (func, internal/a/a.go:3)"},
		},
		{
			name: "types reachable from a live signature are live",
			files: map[string]string{
				"internal/a/a.go": "package a\n\n" +
					"type T struct {\n\tF Field\n\tg Hidden\n}\n\n" +
					"type Field int\n\ntype Hidden int\n\n" +
					"type Result int\n\ntype Private int\n\n" +
					"func (T) M() Result { return 0 }\n\nfunc (T) m() Private { return 0 }\n\n" +
					"func New() *T { return nil }\n",
				"cmd/x/main.go": "package main\n\nimport \"example.com/m/internal/a\"\n\nfunc main() { a.New() }\n",
			},
			dead: []string{
				"internal/a.Hidden (type, internal/a/a.go:10)",
				"internal/a.Private (type, internal/a/a.go:14)",
			},
		},
		{
			name: "reachable through an unexported type's exported method",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype impl struct{}\n\ntype Out int\n\n" +
					"func (impl) Get() Out { return 0 }\n\nfunc Make() impl { return impl{} }\n",
				"cmd/x/main.go": "package main\n\nimport \"example.com/m/internal/a\"\n\nfunc main() { a.Make() }\n",
			},
		},
		{
			name: "consts of a live type are live, of a dead type dead",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype Kind int\n\nconst (\n\tKA Kind = iota\n\tKB\n)\n\n" +
					"type Mode int\n\nconst MA Mode = 0\n\nfunc Get() Kind { return KA }\n",
				"cmd/x/main.go": "package main\n\nimport \"example.com/m/internal/a\"\n\nfunc main() { a.Get() }\n",
			},
			dead: []string{
				"internal/a.MA (const, internal/a/a.go:12)",
				"internal/a.Mode (type, internal/a/a.go:10)",
			},
		},
		{
			name: "error types are live",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype ValueError struct{}\n\nfunc (ValueError) Error() string { return \"\" }\n\n" +
					"type PtrError struct{}\n\nfunc (*PtrError) Error() string { return \"\" }\n",
			},
		},
		{
			name: "an instantiated generic func is live",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc Same[T any](x T) T { return x }\n",
				"cmd/x/main.go":   "package main\n\nimport \"example.com/m/internal/a\"\n\nfunc main() { a.Same(1) }\n",
			},
		},
		{
			name:  "exports outside internal are not candidates",
			files: map[string]string{"pkg/p/p.go": "package p\n\nfunc Unused() {}\n"},
		},
		{
			name: "an allow-list entry keeps test support live, and what it reaches",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype Fixture struct{}\n\nfunc Support() *Fixture { return nil }\n",
			},
			allow: map[string]string{"internal/a.Support": "b's tests build a fixture"},
		},
		{
			name: "faulty allow-list entries are reported",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc Used() {}\n\nfunc Unreasoned() {}\n",
				"cmd/x/main.go":   "package main\n\nimport \"example.com/m/internal/a\"\n\nfunc main() { a.Used() }\n",
			},
			allow: map[string]string{
				"internal/a.Used":       "live without the entry",
				"internal/a.Unreasoned": " ",
				"internal/a.Gone":       "names nothing",
			},
			dead: []string{"internal/a.Unreasoned (func, internal/a/a.go:5)"},
			problems: []string{
				`deadExportAllow names internal/a.Gone, which is not an exported identifier`,
				`deadExportAllow names internal/a.Used, which is live without it`,
				`deadExportAllow["internal/a.Unreasoned"] has no reason`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			files := map[string]string{"go.mod": "module example.com/m\n\ngo 1.23\n"}
			for name, src := range tc.files {
				files[name] = src
			}
			for name, src := range files {
				p := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			dead, problems, _ := loadModule(t, root).deadExports(tc.allow)
			if strings.Join(dead, "\n") != strings.Join(tc.dead, "\n") {
				t.Errorf("dead:\n\t%s\nwant:\n\t%s", strings.Join(dead, "\n\t"), strings.Join(tc.dead, "\n\t"))
			}
			if len(problems) != len(tc.problems) {
				t.Fatalf("allow-list problems:\n\t%s\nwant %d", strings.Join(problems, "\n\t"), len(tc.problems))
			}
			for i, want := range tc.problems {
				if !strings.Contains(problems[i], want) {
					t.Errorf("allow-list problem %d = %q, want it to contain %q", i, problems[i], want)
				}
			}
		})
	}
}
