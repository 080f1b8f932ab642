package lera

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowList names the exported functions and methods that no
// non-test Go file references, each with the reason it stays. A key is the
// declaring directory, a colon and the name ("internal/core:
// Session.ExecSelect" for a method).
var exportAllowList = map[string]string{
	".: CodeOf":            "facade API: re-exports guard.CodeOf for library users",
	".: HasCheckErrors":    "facade API: re-exports rulecheck.HasErrors for library users",
	".: NewCatalog":        "facade API: re-exports catalog.New for library users",
	".: NewInjector":       "facade API: re-exports guard.NewInjector for library users",
	".: NewQueryLog":       "facade API: re-exports obs.NewQueryLog for library users",
	".: RegisterBuildInfo": "facade API: re-exports obs.RegisterBuildInfo for library users",

	"internal/guard: ExternalError.Unwrap":     "interface method: errors.Is/As unwrap through it",
	"internal/rulecheck: Severity.MarshalJSON": "interface method: json.Marshaler, cmd/rulecheck -json",

	"internal/engine: DB.Eval":                 "non-Ctx wrapper of EvalCtx, 48 test callers",
	"internal/core: Session.ExecSelect":        "non-Ctx wrapper of ExecSelectCtx, 2 test callers",
	"internal/core: Rewriter.RewriteBlock":     "non-Ctx wrapper of RunBlockCtx, 3 test callers",
	"internal/rewrite: Engine.RunBlock":        "non-Ctx wrapper of RunBlockCtx, 26 test callers",
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
// exported function or method declared in non-test Go must be referenced
// from non-test Go — its own package, another one, a command, bench/ or
// examples/ — or carry a reason on exportAllowList, so that code reached
// only by tests cannot creep back into the product. The scan is syntactic:
// a package-level function is matched by package and name, a method by
// name alone.
func TestEveryExportHasACaller(t *testing.T) {
	decls, used := scanExports(t)
	var missing []string
	for key := range decls {
		if !used[key] && exportAllowList[key] == "" {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("%s is exported but no non-test Go calls it: move it to the tests that use it, delete it, or allow-list it with a reason", key)
	}
	for key := range exportAllowList {
		if !decls[key] {
			t.Errorf("allow-list entry %s names no exported function or method", key)
		} else if used[key] {
			t.Errorf("allow-list entry %s has a non-test caller now; drop the entry", key)
		}
	}
}

// scanExports parses every non-test Go file under the module root. It
// returns the exported functions and methods declared outside bench/ and
// examples/, and which of them some file references other than from
// inside their own body.
func scanExports(t *testing.T) (decls, used map[string]bool) {
	t.Helper()
	type file struct {
		dir string
		f   *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
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
		files = append(files, file{filepath.ToSlash(filepath.Dir(p)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	decls, used = map[string]bool{}, map[string]bool{}
	funcKey := func(dir, name string) string { return dir + ": " + name }
	methods := map[string][]string{} // method name → keys of the methods so named
	for _, fl := range files {
		if fl.dir == "bench" || strings.HasPrefix(fl.dir, "bench/") || strings.HasPrefix(fl.dir, "examples/") {
			continue
		}
		for _, d := range fl.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv == nil {
				decls[funcKey(fl.dir, fd.Name.Name)] = true
				continue
			}
			key := funcKey(fl.dir, recvName(fd.Recv.List[0].Type)+"."+fd.Name.Name)
			decls[key] = true
			methods[fd.Name.Name] = append(methods[fd.Name.Name], key)
		}
	}

	for _, fl := range files {
		imports := map[string]string{} // local name → declaring directory
		for _, im := range fl.f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(p, "lera/")
			if p == "lera" {
				dir, ok = ".", true
			}
			if !ok {
				continue
			}
			local := path.Base(p)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = dir
		}
		for _, d := range fl.f.Decls {
			// self names the function being walked: a call from inside its
			// own body is recursion, not a caller.
			self, selfMethod := "", ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fd.Recv == nil {
					self = funcKey(fl.dir, fd.Name.Name)
				} else {
					selfMethod = fd.Name.Name
				}
			}
			useFunc := func(key string) {
				if key != self {
					used[key] = true
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// The declared name is not a reference.
					if n.Recv != nil {
						ast.Inspect(n.Recv, visit)
					}
					ast.Inspect(n.Type, visit)
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if dir, ok := imports[x.Name]; ok {
							useFunc(funcKey(dir, n.Sel.Name))
							return false
						}
					}
					if n.Sel.Name != selfMethod {
						for _, key := range methods[n.Sel.Name] {
							used[key] = true
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					useFunc(funcKey(fl.dir, n.Name))
				}
				return true
			}
			ast.Inspect(d, visit)
		}
	}
	return decls, used
}

// recvName is the type name of a method receiver: T for T, *T, T[P] and
// *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
