// Package apibudget is the exported-API budget of the module: its test lists
// every exported function, method, type, const and var of internal/... that no
// non-test file of another package references, and fails unless allow.txt
// names it with a reason from a closed set. A stale allow.txt line — its
// identifier gone or now called from outside — fails too.
//
//	go test ./scripts/apibudget/        # the gate
//	go test ./scripts/apibudget/ -v     # plus the rule-(h) line and API counts
//
// Both modules count as callers: the root one (cmd/, examples/, client/, the
// xpgraph package, internal/ itself) and benchmarks/, which calls internal/
// by name. Packages come from `go list -json ./...`; everything is
// type-checked from source, the standard library through the source importer,
// so the test needs nothing but the Go toolchain that runs it.
package apibudget

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

const (
	root     = "../.."
	module   = "repro"
	internal = module + "/internal/"
)

// listed is the part of `go list -json` the checker reads.
type listed struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
}

// world is every package of both modules, type-checked from its non-test
// files.
type world struct {
	fset  *token.FileSet
	std   types.Importer
	list  map[string]*listed
	order []string // import paths in `go list` order
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	infos map[string]*types.Info
}

func goList(t *testing.T, dir string) []*listed {
	t.Helper()
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var ps []*listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return ps
}

// load type-checks every package `go list ./...` finds in each module
// directory.
func load(t *testing.T, dirs ...string) *world {
	t.Helper()
	fset := token.NewFileSet()
	w := &world{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		list:  map[string]*listed{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		infos: map[string]*types.Info{},
	}
	for _, dir := range dirs {
		for _, p := range goList(t, dir) {
			w.list[p.ImportPath] = p
			w.order = append(w.order, p.ImportPath)
		}
	}
	for _, path := range w.order {
		if _, err := w.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// Import type-checks a package of either module from its non-test files, and
// hands everything else to the standard library's source importer.
func (w *world) Import(path string) (*types.Package, error) {
	if pkg, ok := w.pkgs[path]; ok {
		return pkg, nil
	}
	p, ok := w.list[path]
	if !ok {
		return w.std.Import(path)
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(w.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: w}).Check(path, w.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	w.pkgs[path], w.files[path], w.infos[path] = pkg, files, info
	return pkg, nil
}

// decl is one exported identifier of internal/.
type decl struct {
	key  string // pkg.Ident or pkg.Recv.Ident, pkg the path below internal/
	obj  types.Object
	doc  string
	used bool // referenced by a non-test file of another package, or reached
	own  bool // referenced by a non-test file of its own package
}

// decls lists every exported top-level identifier and every exported method
// declared in a non-test file under internal/.
func (w *world) decls() map[types.Object]*decl {
	out := map[types.Object]*decl{}
	for _, path := range w.order {
		if !strings.HasPrefix(path, internal) {
			continue
		}
		short := strings.TrimPrefix(path, internal)
		info := w.infos[path]
		add := func(id *ast.Ident, prefix string, doc *ast.CommentGroup) {
			if id.IsExported() {
				out[info.Defs[id]] = &decl{key: short + "." + prefix + id.Name, obj: info.Defs[id], doc: doc.Text()}
			}
		}
		for _, f := range w.files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, "", d.Doc)
					} else {
						add(d.Name, recvName(d.Recv.List[0].Type)+".", d.Doc)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, "", pick(s.Doc, d.Doc))
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, "", pick(s.Doc, d.Doc))
							}
						}
					}
				}
			}
		}
	}
	return out
}

func pick(a, b *ast.CommentGroup) *ast.CommentGroup {
	if a != nil {
		return a
	}
	return b
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	panic(fmt.Sprintf("receiver %T", e))
}

func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// mark sets used on every declaration a non-test file of another package
// names, own on every one its own package names, and then used on every
// method that implements an interface method and every type a used
// declaration's type reaches.
func (w *world) mark(ds map[types.Object]*decl) {
	for _, path := range w.order {
		for _, o := range w.infos[path].Uses {
			if d := ds[origin(o)]; d != nil {
				if d.obj.Pkg().Path() == path {
					d.own = true
				} else {
					d.used = true
				}
			}
		}
	}
	ifaces := w.interfaces()
	for _, d := range ds {
		if f, ok := d.obj.(*types.Func); ok && !d.used {
			d.used = implements(f, ifaces[f.Name()])
		}
	}
	seen := map[types.Type]bool{}
	reached := func(n *types.Named) {
		if d := ds[n.Obj()]; d != nil {
			d.used = true
		}
	}
	var roots []types.Object
	for _, d := range ds {
		if d.used {
			roots = append(roots, d.obj)
		}
	}
	for _, o := range roots {
		reach(o.Type(), seen, reached)
	}
}

// reach calls fn on every named type t leads to — through pointers,
// containers, signatures, exported and embedded struct fields, interface
// methods, type arguments and each named type's underlying type — skipping
// the types seen already.
func reach(t types.Type, seen map[types.Type]bool, fn func(*types.Named)) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Alias:
		reach(types.Unalias(t), seen, fn)
	case *types.Named:
		fn(t.Origin())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			reach(t.TypeArgs().At(i), seen, fn)
		}
		reach(t.Origin().Underlying(), seen, fn)
	case *types.Pointer:
		reach(t.Elem(), seen, fn)
	case *types.Slice:
		reach(t.Elem(), seen, fn)
	case *types.Array:
		reach(t.Elem(), seen, fn)
	case *types.Chan:
		reach(t.Elem(), seen, fn)
	case *types.Map:
		reach(t.Key(), seen, fn)
		reach(t.Elem(), seen, fn)
	case *types.Signature:
		reach(t.Params(), seen, fn)
		reach(t.Results(), seen, fn)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			reach(t.At(i).Type(), seen, fn)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				reach(f.Type(), seen, fn)
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			reach(t.Method(i).Type(), seen, fn)
		}
	}
}

// interfaces indexes, by method name, every interface type of both modules
// (named or literal) and every named one of the standard library packages
// they import, plus the anonymous interfaces package errors asserts against.
func (w *world) interfaces() map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			out[name] = append(out[name], it)
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, path := range w.order {
		visit(w.pkgs[path])
		for _, tv := range w.infos[path].Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	errType := types.Universe.Lookup("error").Type()
	any := types.Universe.Lookup("any").Type()
	boolType := types.Typ[types.Bool]
	for _, m := range []struct {
		name    string
		params  []types.Type
		results []types.Type
	}{
		{"Unwrap", nil, []types.Type{errType}},
		{"Unwrap", nil, []types.Type{types.NewSlice(errType)}},
		{"Is", []types.Type{errType}, []types.Type{boolType}},
		{"As", []types.Type{any}, []types.Type{boolType}},
	} {
		sig := types.NewSignatureType(nil, nil, nil, tuple(m.params), tuple(m.results), false)
		add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, m.name, sig)}, nil).Complete())
	}
	return out
}

func tuple(ts []types.Type) *types.Tuple {
	vs := make([]*types.Var, len(ts))
	for i, t := range ts {
		vs[i] = types.NewParam(token.NoPos, nil, "", t)
	}
	return types.NewTuple(vs...)
}

func implements(f *types.Func, ifaces []*types.Interface) bool {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); !ok || n.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// allowed is one allow.txt line.
type allowed struct {
	line   int
	key    string
	reason string // table-i, public, test-kit or test-hook
	arg    string // test-hook's test name
}

var reasons = regexp.MustCompile(`^(table-i|public|test-kit|test-hook: (Test\w+))(\s.*)?$`)

// parseAllow reads allow.txt's text, and names each line without a reason.
func parseAllow(text string) ([]allowed, []string) {
	var out []allowed
	var bad []string
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		m := reasons.FindStringSubmatch(strings.TrimSpace(rest))
		if m == nil {
			bad = append(bad, fmt.Sprintf("allow.txt:%d: %s: no reason from {table-i, public, test-kit, test-hook: TestName}", i+1, key))
			continue
		}
		reason := strings.SplitN(m[1], ":", 2)[0]
		out = append(out, allowed{line: i + 1, key: key, reason: reason, arg: m[2]})
	}
	return out, bad
}

// testFuncs maps the name of every Test function of either module to the
// identifiers the test files of its package (each package, where several
// declare the name) name: a test-hook entry's test reaches the identifier
// through its own body or a helper beside it.
func (w *world) testFuncs(t *testing.T) map[string][]map[string]bool {
	t.Helper()
	out := map[string][]map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range w.order {
		p := w.list[path]
		ids := map[string]bool{}
		for _, name := range append(append([]string(nil), p.TestGoFiles...), p.XTestGoFiles...) {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					ids[id.Name] = true
				}
				return true
			})
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test") {
					out[fd.Name.Name] = append(out[fd.Name.Name], ids)
				}
			}
		}
	}
	return out
}

// testOnly reports whether no non-test package of either module imports path.
func (w *world) testOnly(path string) bool {
	for _, p := range w.list {
		for _, imp := range p.Imports {
			if imp == path {
				return false
			}
		}
	}
	return true
}

// public returns every object reachable from an exported name of the
// xpgraph or client package: their exported objects, the named types their
// signatures, fields and aliases lead to, and those types' exported methods.
func (w *world) public() map[types.Object]bool {
	out := map[types.Object]bool{}
	seen := map[types.Type]bool{}
	var fn func(*types.Named)
	fn = func(n *types.Named) {
		out[n.Obj()] = true
		for i := 0; i < n.NumMethods(); i++ {
			if m := n.Method(i); m.Exported() {
				out[m] = true
				reach(m.Type(), seen, fn)
			}
		}
	}
	for _, path := range []string{module, module + "/client"} {
		pkg := w.pkgs[path]
		if pkg == nil {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if o := scope.Lookup(name); o.Exported() {
				out[o] = true
				reach(o.Type(), seen, fn)
			}
		}
	}
	return out
}

// docNames returns the text of README.md and of every example test file of
// the root module: where a public identifier a program does not call is
// shown to a user.
func docNames(t *testing.T, w *world, root string) string {
	t.Helper()
	var b strings.Builder
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	b.Write(readme)
	for _, path := range w.order {
		p := w.list[path]
		for _, name := range append(append([]string(nil), p.TestGoFiles...), p.XTestGoFiles...) {
			if strings.HasPrefix(name, "example") {
				src, err := os.ReadFile(filepath.Join(p.Dir, name))
				if err != nil {
					t.Fatal(err)
				}
				b.Write(src)
			}
		}
	}
	return b.String()
}

var tableI = regexp.MustCompile(`\bTable I\b`)

func TestExportedAPIBudget(t *testing.T) {
	w := load(t, root, filepath.Join(root, "benchmarks"))
	text, err := os.ReadFile("allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	problems, exported, allowlisted := w.audit(t, root, string(text))
	for _, p := range problems {
		t.Error(p)
	}
	if len(problems) > 0 {
		t.Log("each exported identifier of internal/ needs a non-test caller outside its package, or an allow.txt line: `pkg.Ident reason`, reason one of table-i, public, test-kit, test-hook: TestName")
	}

	t.Logf("exported identifiers in internal/: %d (%d allowlisted)", exported, allowlisted)
	fields, outside := w.fields()
	t.Logf("exported struct fields in internal/ (reported, not gated: reflection reads them): %d, %d named outside their package", fields, outside)
	for _, s := range w.optionStructs() {
		t.Log(s)
	}
	for _, s := range w.lines(t) {
		t.Log(s)
	}
}

// audit applies the budget to the world loaded from the module at root with
// allow.txt's text: it returns one problem a line (an unlisted identifier,
// a line without a reason, a stale or unjustified line) and counts the
// exported identifiers of internal/ and the allowlisted ones.
func (w *world) audit(t *testing.T, root, allowText string) (problems []string, exported, allowlisted int) {
	t.Helper()
	ds := w.decls()
	w.mark(ds)
	byKey := map[string]*decl{}
	for _, d := range ds {
		byKey[d.key] = d
	}

	allow, problems := parseAllow(allowText)
	tests := w.testFuncs(t)
	public := w.public()
	docs := docNames(t, w, root)
	listed := map[string]bool{}
	for _, a := range allow {
		d := byKey[a.key]
		where := fmt.Sprintf("allow.txt:%d: %s", a.line, a.key)
		switch {
		case listed[a.key]:
			problems = append(problems, where+": listed twice")
		case d == nil:
			problems = append(problems, where+": stale, no such exported identifier")
		case d.used:
			problems = append(problems, where+": stale, a non-test file of another package uses it")
		case a.reason == "table-i" && !tableI.MatchString(d.doc):
			problems = append(problems, where+": table-i, but its doc comment does not cite Table I")
		case a.reason == "public" && !public[d.obj]:
			problems = append(problems, where+": public, but no exported name of xpgraph or client reaches it")
		case a.reason == "public" && !regexp.MustCompile(`\b`+d.obj.Name()+`\b`).MatchString(docs):
			problems = append(problems, where+": public, but neither README.md nor an example names it")
		case a.reason == "test-kit" && !w.testOnly(d.obj.Pkg().Path()):
			problems = append(problems, where+": test-kit, but a non-test package imports "+d.obj.Pkg().Path())
		case a.reason == "test-hook" && tests[a.arg] == nil:
			problems = append(problems, where+": test-hook, but no test is named "+a.arg)
		case a.reason == "test-hook" && !slices.ContainsFunc(tests[a.arg], func(ids map[string]bool) bool { return ids[d.obj.Name()] }):
			problems = append(problems, where+": test-hook, but the test files of "+a.arg+" do not name "+d.obj.Name())
		}
		listed[a.key] = true
	}
	var missing []string
	abs, _ := filepath.Abs(root)
	for _, d := range ds {
		if d.used || listed[d.key] {
			continue
		}
		how := "no non-test caller: delete it, or move it into the test files that call it"
		if d.own {
			how = "used only inside its package: unexport it"
		}
		pos := w.fset.Position(d.obj.Pos())
		rel, _ := filepath.Rel(abs, pos.Filename)
		missing = append(missing, fmt.Sprintf("%s:%d: %s: %s", rel, pos.Line, d.key, how))
	}
	sort.Strings(missing)
	return append(problems, missing...), len(ds), len(allow)
}

// fields counts the exported fields of the exported struct types of
// internal/ and how many of them a non-test file of another package names.
func (w *world) fields() (all, outside int) {
	named := map[types.Object]bool{}
	for _, path := range w.order {
		for _, o := range w.infos[path].Uses {
			if v, ok := o.(*types.Var); ok && v.IsField() && v.Pkg() != nil && v.Pkg().Path() != path {
				named[v.Origin()] = true
			}
		}
	}
	for _, path := range w.order {
		if !strings.HasPrefix(path, internal) {
			continue
		}
		scope := w.pkgs[path].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						all++
						if named[f] {
							outside++
						}
					}
				}
			}
		}
	}
	return all, outside
}

// optionStructs counts the settable (exported) fields of every exported
// Options or Config struct of internal/.
func (w *world) optionStructs() []string {
	var out []string
	for _, path := range w.order {
		if !strings.HasPrefix(path, internal) {
			continue
		}
		scope := w.pkgs[path].Scope()
		for _, name := range scope.Names() {
			if !strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") {
				continue
			}
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			n := 0
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Exported() {
					n++
				}
			}
			out = append(out, fmt.Sprintf("settable fields: %s.%s %d", strings.TrimPrefix(path, internal), name, n))
		}
	}
	return out
}

// lines is the rule-(h) count: Go code lines, blank and //-only lines
// excluded, benchmarks/ excluded, non-test and test apart, and the packages
// only tests import (the test kits) on their own line.
func (w *world) lines(t *testing.T) []string {
	t.Helper()
	count := func(dir string, names []string) int {
		n := 0
		for _, name := range names {
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range strings.Split(string(src), "\n") {
				if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "//") {
					n++
				}
			}
		}
		return n
	}
	var nonTest, test, kit int
	var kits []string
	for _, path := range w.order {
		p := w.list[path]
		if strings.HasPrefix(path, module+"/benchmarks") {
			continue
		}
		n := count(p.Dir, p.GoFiles)
		if strings.HasPrefix(path, internal) && len(p.GoFiles) > 0 && w.testOnly(path) {
			kit += n
			kits = append(kits, strings.TrimPrefix(path, internal))
		} else {
			nonTest += n
		}
		test += count(p.Dir, p.TestGoFiles) + count(p.Dir, p.XTestGoFiles)
	}
	return []string{
		fmt.Sprintf("rule (h): non-test %d lines, test %d lines (benchmarks/ excluded)", nonTest+kit, test),
		fmt.Sprintf("rule (h): of the non-test lines, %d are test kits only tests import: %s", kit, strings.Join(kits, ", ")),
	}
}
