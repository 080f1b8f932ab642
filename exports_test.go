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

// exportAllowList names the exported declarations that have no non-test
// user, each with the reason it stays. A reason falls in one of three
// classes, and its prefix says which: an interface method the standard
// library calls ("stdlib interface method: "); an extension API the paper
// names and README.md or docs/ shows ("extension API (§…)"); or a
// function or method the tests of three or more packages call, with the
// count ("tests of N packages, M calls: "). A key is the declaring directory, a colon and the name
// ("internal/core: Session.Fork" for a method, "internal/server:
// Config.Addr" for a field).
var exportAllowList = map[string]string{
	"internal/guard: ExternalError.Unwrap":    "stdlib interface method: errors.Is and errors.As unwrap through it",
	"internal/guard: invalidError.Unwrap":     "stdlib interface method: errors.Is and errors.As reach ErrInvalid and the wrapped error through it",
	"internal/server: rowsText.UnmarshalJSON": "stdlib interface method: encoding/json hands the client's decoder a response's rows text through it",

	"internal/catalog: Catalog.AddConstraint": "extension API (§6.1 integrity constraints), shown in docs/RULES.md",
	"internal/core: WithDynamicLimits":        "extension API (§7 dynamic block limits), shown in README.md and DESIGN.md",

	"internal/rewrite: Engine.RunBlockCtx": "tests of 5 packages, 31 calls: one §4.2 block alone, the unit the rule-library tests pin",
	"internal/testdb: DominatorsOfQuinn":   "tests of 5 packages, 9 calls: the Figure 5 expected answer",
	"internal/guard: Injector.Calls":       "tests of 4 packages, 10 calls: fault-injection hit counts",
	"internal/leakcheck: Main":             "tests of 4 packages, 4 calls: the goroutine-leak gate their TestMain runs",
	"internal/term: At":                    "tests of 3 packages, 14 calls: path addressing beside ReplaceAt",
}

// TestEveryExportHasACaller: product code is what the product runs. Every
// exported name declared in non-test Go must have a user in non-test Go —
// its own package, another one, a command, bench/ or examples/: a
// function or method is called, a package-level type, constant or
// variable is referred to outside its own declaration (a method's
// receiver does not count), and a struct field is both written and read
// (a json tag counts as both, as the decoder writes and the encoder reads
// it, and the encoder reads an embedded field of a json-tagged struct). A name that has no user needs a reason on exportAllowList, so that
// code, settings and results only tests reach cannot creep back into the
// product. Names are resolved with go/types: a method is matched as an
// object, never by its name alone.
func TestEveryExportHasACaller(t *testing.T) {
	decls, used, err := scanExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range unused(decls, used) {
		if exportAllowList[key] == "" {
			t.Errorf("%s (%s) is exported but has no non-test user: move it to the tests that use it, delete it, or allow-list it with a reason", key, decls[key])
		}
	}
	for key, reason := range exportAllowList {
		if !strings.HasPrefix(reason, "stdlib interface method: ") && !strings.HasPrefix(reason, "extension API (") && !strings.HasPrefix(reason, "tests of ") {
			t.Errorf("allow-list entry %s: reason %q names none of the three classes", key, reason)
		}
		if decls[key] == "" {
			t.Errorf("allow-list entry %s names no exported declaration", key)
		} else if used[key] {
			t.Errorf("allow-list entry %s has a non-test user now; drop the entry", key)
		}
	}
	count := map[string]int{}
	for _, kind := range decls {
		count[kind]++
	}
	t.Logf("exports scanned: %d functions and methods, %d struct fields, %d types, constants and variables; %d allow-listed",
		count[kindFunc], count[kindField], count[kindName], len(exportAllowList))
}

// TestExportScanSeesThroughNames runs the scan over a fixture module
// (testdata/exportgate) whose test-only exports a match by name, or a
// scan of functions and written fields alone, would miss: a method called
// only through a same-named method of another type, a type named only by
// its methods' receivers, a type, a constant and a variable only a test
// file uses, a field that nothing writes, and one that is written (by a
// composite literal and ++) but never read. A json-tagged field, one
// written only through a sub-field, one read only through a promoted
// selector, and one embedded in a json-tagged struct must pass.
func TestExportScanSeesThroughNames(t *testing.T) {
	decls, used, err := scanExports("testdata/exportgate")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(unused(decls, used), ", ")
	if want := "a: Default, a: Left, a: Left.Hidden, a: Limit, a: Right.Stored, a: Right.Unset, a: TestOnly"; got != want {
		t.Errorf("unused exports = %q, want %q", got, want)
	}
	for _, key := range []string{"a: Right", "a: Right.Hidden", "a: Right.Tagged", "a: Report.Phases", "a: Report.Phases.Execute", "a: Outer.Inner", "a: Inner.Depth", "a: Wire.Outer"} {
		if decls[key] == "" || !used[key] {
			t.Errorf("%s: declared as %q, used %v; want both", key, decls[key], used[key])
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
func unused(decls map[string]string, used map[string]bool) []string {
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
// on any type error. It returns the exported declarations outside bench/
// and examples/, each with its kind, and which of them are used:
//   - a function called (or referenced) other than from inside its own
//     body; a method also counts as called when a method of an interface
//     its type implements is called, by non-test Go or by the standard
//     library on a value handed to it (stdCallers);
//   - a package-level type, constant or variable referred to other than
//     from inside its own declaration or as a method's receiver;
//   - a field both written and read. A write assigns it, increments it,
//     sets it by a composite-literal key or position, addresses it with &,
//     or writes through it (x.F.G = …, x.F[i] = …). A read is any other
//     selector naming it, including an embedded field a promoted selector
//     passes through; x.F op= … and x.F++ are writes only. A json tag
//     counts as both, and an embedded field of a struct with json tags
//     counts as read.
func scanExports(root string) (decls map[string]string, used map[string]bool, err error) {
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
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
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

	// Declarations: exported functions and methods, exported package-level
	// types, constants and variables, and exported fields of every struct
	// type, keyed by the type's name (the field's path from a named type
	// for a nested struct, the source position for an anonymous one).
	keyOf := map[types.Object]string{}
	written, read := map[types.Object]bool{}, map[types.Object]bool{}
	key := func(obj types.Object, name string) string {
		dir, _ := dirOf(obj.Pkg().Path())
		return dir + ": " + name
	}
	for _, dir := range dirs {
		if !product(dir) {
			continue
		}
		for _, f := range files[dir] {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					for _, id := range specNames(spec) {
						if obj := info.Defs[id]; obj != nil && obj.Exported() {
							keyOf[obj] = key(obj, id.Name)
						}
					}
				}
			}
			owner := map[*ast.StructType]string{}
			var fields func(st *ast.StructType, name string)
			fields = func(st *ast.StructType, name string) {
				owner[st] = name
				tagged := make([]bool, len(st.Fields.List))
				var wire bool
				for i, fld := range st.Fields.List {
					if fld.Tag != nil {
						tag, _ := strconv.Unquote(fld.Tag.Value)
						js, ok := reflect.StructTag(tag).Lookup("json")
						tagged[i] = ok && js != "-"
						wire = wire || tagged[i]
					}
				}
				for i, fld := range st.Fields.List {
					idents := fld.Names
					if idents == nil {
						idents = []*ast.Ident{embeddedIdent(fld.Type)}
					}
					for _, id := range idents {
						if v, ok := info.Defs[id].(*types.Var); ok && v.Exported() {
							keyOf[v] = key(v, name+"."+v.Name())
							written[v] = written[v] || tagged[i]
							// The encoder reads a tagged field, and an
							// embedded one of a json wire shape: it
							// flattens its fields into the object.
							read[v] = read[v] || tagged[i] || wire && v.Embedded()
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

	// Uses, over every file: calls and references resolved to objects,
	// field writes and field reads.
	called, referred := map[types.Object]bool{}, map[types.Object]bool{}
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
	// walk records the uses in one declaration. self is what it declares:
	// a call from inside a function's own body is recursion, and a name
	// used inside its own declaration has no user by that.
	walk := func(root ast.Node, self types.Object) {
		// stores holds the selectors an assignment or x++ stores to: the
		// field accesses that are not reads.
		stores := map[*ast.SelectorExpr]bool{}
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := info.Uses[n]
				if obj == nil || obj == self {
					break
				}
				switch obj := obj.(type) {
				case *types.Func:
					fn := obj.Origin()
					called[fn] = true
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ifaceCalls = append(ifaceCalls, fn)
					}
				case *types.TypeName, *types.Const:
					referred[obj] = true
				case *types.Var:
					if !obj.IsField() {
						referred[obj] = true
					}
				}
			case *ast.SelectorExpr:
				sel := info.Selections[n]
				if sel == nil {
					break
				}
				// Each embedded field a promoted selector passes
				// through is read to reach the selected one.
				t, path := sel.Recv(), sel.Index()
				for _, i := range path[:len(path)-1] {
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					fld := t.Underlying().(*types.Struct).Field(i)
					read[fld.Origin()] = true
					t = fld.Type()
				}
				if v, ok := sel.Obj().(*types.Var); ok && !stores[n] {
					read[v.Origin()] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					write(lhs)
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						stores[sel] = true
					}
				}
			case *ast.IncDecStmt:
				write(n.X)
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					stores[sel] = true
				}
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
	for _, dir := range dirs {
		for _, f := range files[dir] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					// A receiver names its type but is not a user of it.
					walk(&ast.FuncDecl{Doc: d.Doc, Name: d.Name, Type: d.Type, Body: d.Body}, info.Defs[d.Name])
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var self types.Object
						if names := specNames(spec); len(names) == 1 {
							self = info.Defs[names[0]]
						}
						walk(spec, self)
					}
				}
			}
		}
	}

	decls, used = map[string]string{}, map[string]bool{}
	for obj, k := range keyOf {
		switch obj := obj.(type) {
		case *types.Func:
			decls[k] = kindFunc
			used[k] = called[obj] || implementsCalled(obj, ifaceCalls)
		case *types.Var:
			if obj.IsField() {
				decls[k] = kindField
				used[k] = written[obj] && read[obj]
				break
			}
			decls[k] = kindName
			used[k] = referred[obj]
		default:
			decls[k] = kindName
			used[k] = referred[obj]
		}
	}
	return decls, used, nil
}

// The kinds of exported declaration the scan judges, with what a user of
// each does.
const (
	kindFunc  = "function or method"         // called
	kindField = "struct field"               // written and read
	kindName  = "type, constant or variable" // referred to
)

// specNames are the names a type or value spec declares.
func specNames(spec ast.Spec) []*ast.Ident {
	switch spec := spec.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{spec.Name}
	case *ast.ValueSpec:
		return spec.Names
	}
	return nil
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
