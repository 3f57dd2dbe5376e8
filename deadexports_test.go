package graphxmt_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// deadExportAllow names the exported identifiers and members under
// internal/ that only tests use, or that only the benchmark sets, with the
// reason each is exported anyway. Keep it short: what only its own
// package's tests use is unexported and, for its external tests,
// re-exported from an export_test.go.
var deadExportAllow = map[string]string{
	"internal/bspalg.NewKCoreProgram":           "core's determinism matrix runs an aux-state program",
	"internal/bspalg.NewLPProgram":              "core's broadcast and direction tests run a label-exchanging program without a combiner",
	"internal/bspalg.PageRankProgram":           "core's tests run the Sum-combining dense program",
	"internal/bspalg.TCProgram":                 "core's tests run the per-edge-unicast program",
	"internal/ckpt.Decode":                      "core's determinism matrix decodes each boundary's payload as it is written",
	"internal/faultinject.ErrInjectedWrite":     "core's recovery test checks that a WriteError wraps the injected failure",
	"internal/faultinject.FlipBit":              "ckpt's and core's tests corrupt checkpoint files",
	"internal/faultinject.TruncateTail":         "ckpt's and core's tests tear checkpoint files",
	"internal/gen.BinaryTree":                   "a tree fixture for graphct's and bspalg's tests",
	"internal/graph.BuildOptions.SortAdjacency": "bench/workloads.go sets it; ROADMAP item 1(b) deletes it with the benchmark's next change",
	"internal/graph.Graph.VerifyCompressed":     "graphio's fuzz tests and graph's tests audit CSR2 decoding with it, the only ascent and self-loop check (ROADMAP item 16)",
	"internal/metrics.ValidateExposition":       "live's tests validate the /metrics body",
	"internal/obs.NewChrome":                    "live's tests feed the Chrome sink",
	"internal/obs.NewJSONL":                     "core's and live's tests read the JSONL event stream",
	"internal/obs/live.NewServer":               "core's determinism test and live's tests start a server without flags",
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
// It also fails on two kinds of dead member of a named type under
// internal/, exported or not:
//
//   - an exported method that no non-test code names and that implements
//     no interface the module's non-test code declares or uses, and
//   - an exported struct field that no code, tests included, reads
//     (assignments and composite-literal keys are writes), unless it is
//     embedded or its type has struct tags or implements error: reflection
//     and errors.As read those.
//
// Members are named "pkg.Type.Member" on the allow-list and in the report.
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
		t.Errorf("%d of %d exported identifiers and members under internal/ are dead by the rules above; "+
			"delete or unexport them (or, for cross-package test support only, add them to deadExportAllow with a reason):\n\t%s",
			len(dead), cands, strings.Join(dead, "\n\t"))
	}
}

// deadExports applies TestNoDeadExports's rules to the module, with allow as
// the allow-list. It returns the dead identifiers, each as "name (kind,
// file:line)", the allow-list's faults, and the number of candidates.
func (m *module) deadExports(allow map[string]string) (dead, problems []string, candidates int) {
	// Candidates: the exported package-level identifiers under internal/,
	// and the exported methods and fields of every named type declared there.
	cands, members := map[string]types.Object{}, map[string]types.Object{}
	for _, p := range m.pkgs {
		if !m.isInternal(p.types) {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				cands[m.name(obj)] = obj
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			for i := 0; i < n.NumMethods(); i++ {
				if fn := n.Method(i); fn.Exported() {
					members[m.name(tn)+"."+fn.Name()] = fn
				}
			}
			if st, ok := n.Underlying().(*types.Struct); ok && !reflected(n, st) {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						members[m.name(tn)+"."+f.Name()] = f
					}
				}
			}
		}
	}
	maps.Copy(cands, members)

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
	if err := m.liveMembers(members, live); err != nil {
		problems = append(problems, err.Error())
	}
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
			if n, ok := obj.Type().(*types.Named); ok && obj.Parent() == obj.Pkg().Scope() &&
				n.Obj().Pkg() == obj.Pkg() && live[n.Obj()] {
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

// reflected reports whether a struct type's fields are read without being
// named: through reflection (it has struct tags) or errors.As (it is an
// error).
func reflected(n *types.Named, st *types.Struct) bool {
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if types.Implements(n, errIface) || types.Implements(types.NewPointer(n), errIface) {
		return true
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Tag(i) != "" {
			return true
		}
	}
	return false
}

// liveMembers marks the live methods and fields among members: a method
// that non-test code names or that implements an interface the module's
// non-test code declares or uses, and a field that any code reads.
func (m *module) liveMembers(members map[string]types.Object, live map[types.Object]bool) error {
	reads, err := m.testReads()
	if err != nil {
		return err
	}
	ifaces := interfaceSet{seen: map[types.Type]bool{}}
	// error, and the methods fmt and errors look for by assertion.
	ifaces.add(types.Universe.Lookup("error").Type())
	ifaces.add(method("String", types.Typ[types.String]))
	ifaces.add(method("Unwrap", types.Universe.Lookup("error").Type()))
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
				live[fn.Origin()] = true
			}
			ifaces.add(obj.Type())
		}
		for _, obj := range p.info.Defs {
			if obj != nil {
				ifaces.add(obj.Type())
			}
		}
		for _, tv := range p.info.Types {
			ifaces.add(tv.Type)
		}
		p.fieldReads(func(f *types.Var) { live[f.Origin()] = true })
	}
	for _, obj := range members {
		if reads[obj.Pos()] {
			live[obj] = true
		}
		fn, ok := obj.(*types.Func)
		if !ok || live[fn] {
			continue
		}
		recv := fn.Signature().Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, iface := range ifaces.list {
			if sel, _, _ := types.LookupFieldOrMethod(iface, false, nil, fn.Name()); sel != nil &&
				(types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
				live[fn] = true
				break
			}
		}
	}
	return nil
}

// method is the interface of one method that takes nothing and returns a
// result of type res.
func method(name string, res types.Type) *types.Interface {
	sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", res)), false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
}

// interfaceSet collects the non-empty interfaces a set of types mentions,
// through pointers, containers and signatures.
type interfaceSet struct {
	seen map[types.Type]bool
	list []*types.Interface
}

func (s *interfaceSet) add(t types.Type) {
	if t == nil || s.seen[t] {
		return
	}
	s.seen[t] = true
	switch t := t.(type) {
	case *types.Alias:
		s.add(types.Unalias(t))
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok {
			s.add(it)
		}
	case *types.Interface:
		if t.NumMethods() > 0 {
			s.list = append(s.list, t)
		}
	case *types.Pointer:
		s.add(t.Elem())
	case *types.Slice:
		s.add(t.Elem())
	case *types.Array:
		s.add(t.Elem())
	case *types.Chan:
		s.add(t.Elem())
	case *types.Map:
		s.add(t.Key())
		s.add(t.Elem())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			s.add(t.At(i).Type())
		}
	case *types.Signature:
		s.add(t.Params())
		s.add(t.Results())
	}
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
	switch obj := obj.(type) {
	case *types.Func:
		if obj.Signature().Recv() != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	case *types.Var:
		if obj.IsField() {
			return "field"
		}
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
	src        map[string]*srcPkg // by import path; shared with test views
}

// srcPkg is a package directory's parsed files: its own, its in-package
// tests' and its external test package's. A package's declarations keep
// their positions in every check that reuses these files.
type srcPkg struct {
	files, tests, xtests []*ast.File
}

type modPkg struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
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
		src:  map[string]*srcPkg{},
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

// parse parses a package directory's files once; a directory without Go
// files parses as nil.
func (m *module) parse(ip string) (*srcPkg, error) {
	if s, ok := m.src[ip]; ok {
		return s, nil
	}
	dir := m.dirs[ip]
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			m.src[ip] = nil
			return nil, nil
		}
		return nil, err
	}
	s := &srcPkg{}
	for _, set := range []struct {
		names []string
		files *[]*ast.File
	}{{bp.GoFiles, &s.files}, {bp.TestGoFiles, &s.tests}, {bp.XTestGoFiles, &s.xtests}} {
		for _, name := range set.names {
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			*set.files = append(*set.files, f)
		}
	}
	m.src[ip] = s
	return s, nil
}

// load type-checks one package of the module from its non-test files; a
// directory without Go files loads as nil.
func (m *module) load(ip string) (*modPkg, error) {
	if p, ok := m.pkgs[ip]; ok {
		return p, nil
	}
	s, err := m.parse(ip)
	if s == nil || err != nil {
		m.pkgs[ip] = nil
		return nil, err
	}
	p, err := m.check(ip, s.files)
	if err != nil {
		return nil, err
	}
	m.pkgs[ip] = p
	return p, nil
}

// check type-checks files as package ip, importing through m.
func (m *module) check(ip string, files []*ast.File) (*modPkg, error) {
	p := &modPkg{files: files, info: &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	var err error
	p.types, err = (&types.Config{Importer: m}).Check(ip, m.fset, files, p.info)
	return p, err
}

// testReads returns the declaring positions of the struct fields that the
// module's test code reads. Each package's tests are checked the way go test
// builds them: the in-package test files with the package's own, then the
// external test package in a view of the module where that augmented
// package replaces the plain one, and every package importing it is
// re-checked against it, so that each type has one copy.
func (m *module) testReads() (map[token.Pos]bool, error) {
	reads := map[token.Pos]bool{}
	read := func(f *types.Var) { reads[f.Origin().Pos()] = true }
	for ip := range m.dirs {
		s, err := m.parse(ip)
		if err != nil {
			return nil, err
		}
		if s == nil || len(s.tests)+len(s.xtests) == 0 {
			continue
		}
		p, err := m.check(ip, slices.Concat(s.files, s.tests))
		if err != nil {
			return nil, err
		}
		p.fieldReads(read)
		if len(s.xtests) == 0 {
			continue
		}
		view := &module{root: m.root, path: m.path, fset: m.fset, std: m.std, dirs: m.dirs, src: m.src,
			pkgs: map[string]*modPkg{ip: p}}
		for dep, q := range m.pkgs {
			if !imports(q.types, ip, map[*types.Package]bool{}) {
				view.pkgs[dep] = q
			}
		}
		x, err := view.check(ip+"_test", s.xtests)
		if err != nil {
			return nil, err
		}
		x.fieldReads(read)
	}
	return reads, nil
}

// imports reports whether p is ip or imports it, directly or not.
func imports(p *types.Package, ip string, seen map[*types.Package]bool) bool {
	if p.Path() == ip {
		return true
	}
	seen[p] = true
	for _, q := range p.Imports() {
		if !seen[q] && imports(q, ip, seen) {
			return true
		}
	}
	return false
}

// fieldReads calls read for every struct field a package's code reads: a
// field selection that is not the left side of a plain assignment.
func (p *modPkg) fieldReads(read func(*types.Var)) {
	for _, f := range p.files {
		written := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN {
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							written[sel] = true
						}
					}
				}
			case *ast.SelectorExpr:
				if s := p.info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !written[n] {
					read(s.Obj().(*types.Var))
				}
			}
			return true
		})
	}
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
				"cmd/x/main.go": "package main\n\nimport \"example.com/m/internal/a\"\n\nfunc main() { t := a.New(); _ = t.F; t.M() }\n",
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
				"cmd/x/main.go": "package main\n\nimport \"example.com/m/internal/a\"\n\nfunc main() { a.Make().Get() }\n",
			},
		},
		{
			name: "a method no non-test code names is reported",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype T struct{}\n\nfunc New() T { return T{} }\n\n" +
					"func (T) Used() {}\n\nfunc (T) Inner() {}\n\nfunc (t T) Outer() { t.Inner() }\n\n" +
					"func (*T) Dead() {}\n\ntype hidden struct{}\n\nfunc (hidden) Dead() {}\n",
				"internal/a/a_test.go": "package a\n\nfunc f(t T) { t.Dead(); hidden{}.Dead() }\n",
				"cmd/x/main.go":        "package main\n\nimport \"example.com/m/internal/a\"\n\nfunc main() { t := a.New(); t.Used(); t.Outer() }\n",
			},
			dead: []string{
				"internal/a.T.Dead (method, internal/a/a.go:13)",
				"internal/a.hidden.Dead (method, internal/a/a.go:17)",
			},
		},
		{
			name: "a method reached only through an interface is live",
			files: map[string]string{
				"internal/a/a.go": "package a\n\n" +
					"type Namer interface{ Name() string }\n\nfunc Use(n Namer) string { return n.Name() }\n\n" +
					"type T struct{}\n\nfunc New() *T { return &T{} }\n\n" +
					"func (T) Name() string { return \"\" }\n\n" +
					"func (*T) Write(p []byte) (int, error) { return len(p), nil }\n\n" +
					"func (T) String() string { return \"\" }\n\n" +
					"func (T) Unwrap() error { return nil }\n\n" +
					"func (T) Other() string { return \"\" }\n",
				"cmd/x/main.go": "package main\n\nimport (\n\t\"fmt\"\n\n\t\"example.com/m/internal/a\"\n)\n\n" +
					"func main() { t := a.New(); a.Use(t); fmt.Fprintln(t, t) }\n",
			},
			dead: []string{"internal/a.T.Other (method, internal/a/a.go:19)"},
		},
		{
			name: "a field nothing reads is reported",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype T struct {\n\tRead, Written, Unread, Bumped int\n\tunexported int\n}\n",
				"cmd/x/main.go": "package main\n\nimport \"example.com/m/internal/a\"\n\n" +
					"func main() {\n\tt := a.T{Unread: 1}\n\tt.Written = t.Read\n\tt.Bumped++\n}\n",
			},
			dead: []string{
				"internal/a.T.Unread (field, internal/a/a.go:4)",
				"internal/a.T.Written (field, internal/a/a.go:4)",
			},
		},
		{
			name: "tagged, error and embedded fields are exempt",
			files: map[string]string{
				"internal/a/a.go": "package a\n\n" +
					"type J struct {\n\tX int `json:\"x\"`\n\tY int\n}\n\n" +
					"type E struct{ Code int }\n\nfunc (*E) Error() string { return \"\" }\n\n" +
					"type W struct{ J }\n",
				"cmd/x/main.go": "package main\n\nimport \"example.com/m/internal/a\"\n\n" +
					"func main() { _, _, _ = a.J{}, a.E{}, a.W{} }\n",
			},
		},
		{
			name: "a field a test reads is live",
			files: map[string]string{
				"internal/a/a.go":           "package a\n\ntype T struct{ In, Ext, None int }\n",
				"internal/b/b.go":           "package b\n\nimport \"example.com/m/internal/a\"\n\nfunc Get() a.T { return a.T{} }\n",
				"internal/a/export_test.go": "package a\n\nfunc In(t T) int { return t.In }\n",
				"internal/a/a_test.go": "package a_test\n\nimport (\n\t\"example.com/m/internal/a\"\n\t\"example.com/m/internal/b\"\n)\n\n" +
					"func f() int { var t a.T = b.Get(); return t.Ext + a.In(t) }\n",
				"cmd/x/main.go": "package main\n\nimport \"example.com/m/internal/b\"\n\nfunc main() { b.Get() }\n",
			},
			dead: []string{"internal/a.T.None (field, internal/a/a.go:3)"},
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
				"internal/a/a.go": "package a\n\ntype Fixture struct{ Set int }\n\nfunc Support() *Fixture { return nil }\n\nfunc (*Fixture) Check() {}\n",
			},
			allow: map[string]string{
				"internal/a.Support":       "b's tests build a fixture",
				"internal/a.Fixture.Check": "b's tests check it",
				"internal/a.Fixture.Set":   "the benchmark sets it",
			},
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
