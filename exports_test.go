package lera

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowList names the exported functions, methods and struct fields
// that no non-test Go file calls (a function) or writes (a field), each
// with the reason it stays. A key is the declaring directory, a colon and
// the name ("internal/core: Session.Prepared" for a method,
// "internal/server: Config.Addr" for a field).
var exportAllowList = map[string]string{
	".: CodeOf":            "facade API: re-exports guard.CodeOf for library users",
	".: HasCheckErrors":    "facade API: re-exports rulecheck.HasErrors for library users",
	".: NewCatalog":        "facade API: re-exports catalog.New for library users",
	".: NewInjector":       "facade API: re-exports guard.NewInjector for library users",
	".: NewQueryLog":       "facade API: re-exports obs.NewQueryLog for library users",
	".: RegisterBuildInfo": "facade API: re-exports obs.RegisterBuildInfo for library users",

	"internal/guard: ExternalError.Unwrap": "interface method: errors.Is/As unwrap through it",

	"internal/testdb: DominatorsOfQuinn":       "test-fixture package: the Figure 5 expected answer",
	"internal/translate: Query":                "parse-and-translate shorthand for tests of two packages, 9 test callers",
	"internal/lera: Let":                       "LERA constructor kept beside the ones translate uses, 5 test callers",
	"internal/lera: Project":                   "LERA constructor kept beside the ones translate uses, 8 test callers",
	"internal/lera: Unnest":                    "LERA constructor kept beside the ones translate uses, 8 test callers",
	"internal/lera: Value":                     "LERA constructor kept beside the ones translate uses, 3 test callers",
	"internal/lera: Validate":                  "structural check of LERA terms, 7 test callers in three packages",
	"internal/term: At":                        "path addressing beside ReplaceAt, 12 test callers in two packages",
	"internal/catalog: Catalog.AddConstraint":  "extension API: a §6.1 integrity constraint registered as a rule",
	"internal/catalog: Relation.Column":        "schema lookup by column name, 2 test callers",
	"internal/types: Type.ZeroValue":           "ADT API: a type's default value, pinned by TestZeroValue",
	"internal/rewrite: Ctx.Fresh":              "external-function API: fresh relation names for rule externals",
	"internal/rewrite: Engine.RunBlockCtx":     "one §4.2 block alone: the unit the rule-library tests of five packages pin, 30 test callers",
	"internal/obs: CounterVec.Sum":             "ledger total over a vector's series, checked by tests of obs and server, 11 test callers",
	"internal/rulecheck: Filter":               "diagnostic selection beside HasErrors and Count, 6 test callers",
	"internal/core: Rewriter.CheckDiagnostics": "accessor for the verified rule base's findings, 3 test callers",
	"internal/core: Session.Prepared":          "accessor for prepared-statement names, 4 test callers",
	"internal/guard: Gate.Draining":            "accessor for the admission gate's drain state, 2 test callers",
	"internal/guard: Injector.Calls":           "accessor for fault-injection hit counts, 11 test callers",
	"internal/obs: CounterVec.Overflowed":      "accessor for label-cardinality collapses, which no exposition carries",
	"internal/obs: HistogramVec.Overflowed":    "accessor for label-cardinality collapses, which no exposition carries",
	"internal/server: Server.SlowLog":          "accessor for the slow-query ring, for embedding callers and 4 test callers",
}

// TestEveryExportHasACaller: product code is what the product runs. Every
// exported function or method declared in non-test Go must be called from
// non-test Go — its own package, another one, a command, bench/ or
// examples/ — and every exported struct field must be written there (or
// carry a json tag, so the decoder writes it), or carry a reason on
// exportAllowList, so that code and settings only tests reach cannot creep
// back into the product. Names are resolved with go/types: a method is
// matched as an object, never by its name alone.
func TestEveryExportHasACaller(t *testing.T) {
	decls, used, err := scanExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range unused(decls, used) {
		if exportAllowList[key] == "" {
			t.Errorf("%s is exported but no non-test Go calls or writes it: move it to the tests that use it, delete it, or allow-list it with a reason", key)
		}
	}
	for key := range exportAllowList {
		if !decls[key] {
			t.Errorf("allow-list entry %s names no exported function, method or field", key)
		} else if used[key] {
			t.Errorf("allow-list entry %s has a non-test caller or writer now; drop the entry", key)
		}
	}
}

// TestExportScanSeesThroughNames runs the scan over a fixture module
// (testdata/exportgate) built so that a match by name misses both of its
// test-only exports: a method called only through a same-named method of
// another type, and a field that nothing writes. A json-tagged field and
// one written only through a sub-field must pass.
func TestExportScanSeesThroughNames(t *testing.T) {
	decls, used, err := scanExports("testdata/exportgate")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(unused(decls, used), ", ")
	if want := "a: Left.Hidden, a: Right.Unset"; got != want {
		t.Errorf("unused exports = %q, want %q", got, want)
	}
	for _, key := range []string{"a: Right.Hidden", "a: Right.Tagged", "a: Report.Phases", "a: Report.Phases.Execute"} {
		if !decls[key] || !used[key] {
			t.Errorf("%s: declared %v, used %v; want both", key, decls[key], used[key])
		}
	}

	// A source set that does not type-check fails the scan.
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":  "module broken\n",
		"b/b.go":  "package b\n\nvar X int = \"text\"\n",
		"main.go": "package main\n\nimport \"broken/b\"\n\nfunc main() { _ = b.X }\n",
	} {
		if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := scanExports(dir); err == nil || !strings.Contains(err.Error(), "cannot use") {
		t.Errorf("scan of a source set with a type error: err = %v, want the type error", err)
	}
}

// unused lists, sorted, the declared keys nothing uses.
func unused(decls, used map[string]bool) []string {
	var keys []string
	for key := range decls {
		if !used[key] {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// scanExports type-checks every non-test Go file of the module at root, in
// import order, with the standard library from importer.Default, and fails
// on any type error. It returns the exported functions, methods and struct
// fields declared outside bench/ and examples/, and which of them are used:
// a function called (or referenced) other than from inside its own body,
// a field written — assigned, incremented, set by a composite-literal key
// or position, addressed with &, or written through (x.F.G = …, x.F[i] =
// …) — or tagged for encoding/json. A method also counts as called when a
// method of an interface its type implements is called, by non-test Go or
// by the standard library on a value handed to it (stdCallers).
func scanExports(root string) (decls, used map[string]bool, err error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(p)
		}
	}

	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // directory → its non-test files
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	dirOf := func(importPath string) (string, bool) {
		if importPath == modPath {
			return ".", true
		}
		dir, ok := strings.CutPrefix(importPath, modPath+"/")
		return dir, ok && files[dir] != nil
	}
	product := func(dir string) bool {
		return dir != "bench" && !strings.HasPrefix(dir, "bench/") && !strings.HasPrefix(dir, "examples/")
	}

	// Type-check the packages in import order into one Info.
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkgs := map[string]*types.Package{}
	var typeErrs []error
	std := importer.Default()
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if pkg := pkgs[p]; pkg != nil {
				return pkg, nil
			}
			if _, ok := dirOf(p); ok {
				return nil, fmt.Errorf("%s is imported before it is checked (an import cycle?)", p)
			}
			return std.Import(p)
		}),
		Error: func(err error) { typeErrs = append(typeErrs, err) },
	}
	var check func(dir string)
	check = func(dir string) {
		path := modPath
		if dir != "." {
			path += "/" + dir
		}
		if _, seen := pkgs[path]; seen {
			return
		}
		pkgs[path] = nil
		for _, f := range files[dir] {
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				if dep, ok := dirOf(p); ok {
					check(dep)
				}
			}
		}
		pkgs[path], _ = conf.Check(path, fset, files[dir], info)
	}
	dirs := make([]string, 0, len(files))
	for dir := range files {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		check(dir)
	}
	if len(typeErrs) > 0 {
		return nil, nil, fmt.Errorf("the module does not type-check: %w", errors.Join(typeErrs...))
	}

	// Declarations: exported functions and methods, and exported fields of
	// every struct type, keyed by the type's name (the field's path from a
	// named type for a nested struct, the source position for an
	// anonymous one).
	keyOf := map[types.Object]string{}
	written := map[types.Object]bool{}
	key := func(obj types.Object, name string) string {
		dir, _ := dirOf(obj.Pkg().Path())
		return dir + ": " + name
	}
	for _, dir := range dirs {
		if !product(dir) {
			continue
		}
		for _, f := range files[dir] {
			owner := map[*ast.StructType]string{}
			var fields func(st *ast.StructType, name string)
			fields = func(st *ast.StructType, name string) {
				owner[st] = name
				for _, fld := range st.Fields.List {
					var tagged bool
					if fld.Tag != nil {
						tag, _ := strconv.Unquote(fld.Tag.Value)
						js, ok := reflect.StructTag(tag).Lookup("json")
						tagged = ok && js != "-"
					}
					idents := fld.Names
					if idents == nil {
						idents = []*ast.Ident{embeddedIdent(fld.Type)}
					}
					for _, id := range idents {
						if v, ok := info.Defs[id].(*types.Var); ok && v.Exported() {
							keyOf[v] = key(v, name+"."+v.Name())
							written[v] = written[v] || tagged
							if sub, ok := fld.Type.(*ast.StructType); ok {
								fields(sub, name+"."+v.Name())
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if fn, ok := info.Defs[n.Name].(*types.Func); ok && fn.Exported() {
						keyOf[fn] = key(fn, funcName(fn))
					}
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						fields(st, n.Name.Name)
					}
				case *ast.StructType:
					if _, ok := owner[n]; !ok {
						pos := fset.Position(n.Pos())
						fields(n, fmt.Sprintf("struct@%s:%d", filepath.Base(pos.Filename), pos.Line))
					}
				}
				return true
			})
		}
	}

	// Uses, over every file: calls resolved to objects, and field writes.
	called := map[types.Object]bool{}
	var ifaceCalls []*types.Func
	for _, name := range stdCallers {
		dot := strings.LastIndex(name, ".")
		pkg, err := std.Import(name[:dot])
		if err != nil {
			return nil, nil, err
		}
		iface := pkg.Scope().Lookup(name[dot+1:]).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			ifaceCalls = append(ifaceCalls, iface.Method(i))
		}
	}
	var write func(x ast.Expr)
	write = func(x ast.Expr) {
		switch x := x.(type) {
		case *ast.ParenExpr:
			write(x.X)
		case *ast.StarExpr:
			write(x.X)
		case *ast.IndexExpr:
			write(x.X)
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
				written[v.Origin()] = true
			}
			write(x.X)
		}
	}
	for _, dir := range dirs {
		for _, f := range files[dir] {
			for _, d := range f.Decls {
				// self is the function being walked: a call from inside
				// its own body is recursion, not a caller.
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						fn, ok := info.Uses[n].(*types.Func)
						if !ok || fn == self {
							break
						}
						fn = fn.Origin()
						called[fn] = true
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
							ifaceCalls = append(ifaceCalls, fn)
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							write(lhs)
						}
					case *ast.IncDecStmt:
						write(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							write(n.X)
						}
					case *ast.CompositeLit:
						var st *types.Struct
						if tv, ok := info.Types[n]; ok {
							t := tv.Type
							if p, ok := t.Underlying().(*types.Pointer); ok {
								t = p.Elem()
							}
							st, _ = t.Underlying().(*types.Struct)
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
										written[v.Origin()] = true
									}
								}
							} else if st != nil {
								written[st.Field(i).Origin()] = true
							}
						}
					}
					return true
				})
			}
		}
	}

	decls, used = map[string]bool{}, map[string]bool{}
	for obj, k := range keyOf {
		decls[k] = true
		switch obj := obj.(type) {
		case *types.Var:
			used[k] = written[obj]
		case *types.Func:
			used[k] = called[obj] || implementsCalled(obj, ifaceCalls)
		}
	}
	return decls, used, nil
}

// stdCallers are the interfaces whose methods the standard library calls
// on the values handed to it: fmt's verbs, the flag parser and the JSON
// encoder.
var stdCallers = []string{"fmt.Stringer", "flag.Value", "encoding/json.Marshaler"}

// implementsCalled reports whether method fn implements a method of an
// interface some non-test code calls, so that a call through the
// interface may reach it.
func implementsCalled(fn *types.Func, ifaceCalls []*types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, m := range ifaceCalls {
		if m.Name() != fn.Name() {
			continue
		}
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// funcName is Name for a function and Recv.Name for a method, Recv being
// the receiver's type name without pointer or type parameters.
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return "?." + fn.Name()
}

// embeddedIdent is the identifier an embedded field is named by: T for T,
// *T, p.T and T[P].
func embeddedIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.SelectorExpr:
			return e.Sel
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}
