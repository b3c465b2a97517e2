package tse

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// productDirs are the trees whose non-test files count as product code:
// the library, the tools, the example and the benchmark module.
var productDirs = []string{"internal", "cmd", "examples", "bench"}

// uncalledAllowed lists the exported functions and methods under internal/
// that no product code names but that stay, keyed "pkg.Func" or
// "pkg.Recv.Method", with the reason each one stays.
var uncalledAllowed = map[string]string{
	"bitvec.MustPattern":        "test helper shared by the tests of several packages",
	"bitvec.Vec.AndNot":         "reference operation for tests in other packages",
	"bitvec.Vec.OnesCount":      "counts mask bits for tests in other packages",
	"pcap.Reader.ReadAll":       "reads a capture whole for tests in other packages",
	"flowtable.DenyMaskProduct": "the oracle core's tests check generated traces against",
	"faults.Random":             "the seeded fault plan a randomized path-equivalence harness draws from",
	"trace.GoldenOptions":       "the fixture that generates the committed golden trace",
}

// implicitMethods are method names that code calls through an interface
// declared outside this module, so no identifier in the tree names them.
var implicitMethods = map[string]string{
	"Error":     "error",
	"String":    "fmt.Stringer",
	"ServeHTTP": "http.Handler",
}

// unsetAllowed lists exported fields of *Config / *Options / *Params
// structs that no product code writes but that stay, keyed
// "pkg.Type.Field", or "pkg.Type" for every field of the type.
var unsetAllowed = map[string]string{
	"vswitch.Config.MaxMegaflows": "a resource bound on megaflow-cache growth, like OVS's flow limit; tests set it",
	"faults.RandomConfig":         "the parameters of faults.Random, which stays",
}

type goFile struct {
	pkg  string // last element of the directory
	path string
	f    *ast.File
}

func parseProduct(t *testing.T) (*token.FileSet, []goFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	for _, root := range productDirs {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, goFile{pkg: filepath.Base(filepath.Dir(path)), path: path, f: f})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(files) == 0 {
		t.Fatal("no product files found")
	}
	return fset, files
}

// recvName returns the receiver's type name, without pointer or type
// parameters.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	e := fd.Recv.List[0].Type
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// externalImports returns the names under which f imports packages from
// outside the module.
func externalImports(f *ast.File) map[string]bool {
	names := map[string]bool{}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || path == "tse" || strings.HasPrefix(path, "tse/") {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		names[name] = true
	}
	return names
}

// TestNoUncalledExports guards against exported API that only tests
// reach. It parses every non-test file under internal/, cmd/, examples/
// and bench/ and fails on
//
//   - an exported top-level function or method under internal/ whose name
//     no identifier outside its own declaration spells, and
//   - an exported field of a struct type named *Config, *Options or
//     *Params that no keyed composite literal, assignment, increment or
//     address-of (flag.IntVar(&cfg.F, ...)) writes; an assignment that
//     only defaults the field, "if c.F <= 0 { c.F = d }", does not count.
//
// The check matches names, not types: a dead method shares the fate of a
// live one with the same name elsewhere in the module, and a dead field
// that of any written field or literal key with its name. So it can miss
// dead code, but it never flags a function product code names or a field
// product code sets (unkeyed struct literals aside, which vet already
// rejects across packages). A selector on a package imported from outside
// the module (slices.Delete, sort.Search) names that package's function,
// never one of this module, so it does not count.
func TestNoUncalledExports(t *testing.T) {
	fset, files := parseProduct(t)

	// Every identifier occurrence, by name, apart from the names that
	// function and method declarations declare.
	idents := map[string][]token.Pos{}
	declName := map[*ast.Ident]bool{}
	// Every name written as a field: literal keys, assignment targets,
	// increments and address-of operands. Writing c.A.B or c.A[i].B sets
	// A as well as B.
	written := map[string]bool{}
	markWritten := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				written[x.Sel.Name] = true
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return
			}
		}
	}
	// Assignments that only default a field, "if c.F <= 0 { c.F = d }",
	// do not count as setting it.
	defaulting := map[*ast.AssignStmt]bool{}
	// The selected names of selectors on packages from outside the module.
	foreign := map[*ast.Ident]bool{}
	for _, gf := range files {
		external := externalImports(gf.f)
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				declName[x.Name] = true
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok && external[pkg.Name] {
					foreign[x.Sel] = true
				}
			case *ast.IfStmt:
				read := map[string]bool{}
				ast.Inspect(x.Cond, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						read[sel.Sel.Name] = true
					}
					return true
				})
				for _, st := range x.Body.List {
					if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
						if sel, ok := as.Lhs[0].(*ast.SelectorExpr); ok && read[sel.Sel.Name] {
							defaulting[as] = true
						}
					}
				}
			case *ast.Ident:
				if !declName[x] && !foreign[x] {
					idents[x.Name] = append(idents[x.Name], x.Pos())
				}
			case *ast.CompositeLit:
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							written[k.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				if defaulting[x] {
					break
				}
				for _, lhs := range x.Lhs {
					markWritten(lhs)
				}
			case *ast.IncDecStmt:
				markWritten(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					markWritten(x.X)
				}
			}
			return true
		})
	}

	var uncalled, unset []string
	seenAllowed := map[string]bool{}
	for _, gf := range files {
		inInternal := strings.HasPrefix(filepath.ToSlash(gf.path), "internal/")
		for _, decl := range gf.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !inInternal || !d.Name.IsExported() {
					continue
				}
				if _, ok := implicitMethods[d.Name.Name]; ok && d.Recv != nil {
					continue
				}
				key := gf.pkg + "." + d.Name.Name
				if r := recvName(d); r != "" {
					key = gf.pkg + "." + r + "." + d.Name.Name
				}
				used := false
				for _, p := range idents[d.Name.Name] {
					if p < d.Pos() || p >= d.End() {
						used = true
						break
					}
				}
				if used {
					continue
				}
				if _, ok := uncalledAllowed[key]; ok {
					seenAllowed[key] = true
					continue
				}
				uncalled = append(uncalled, key+" ("+fset.Position(d.Pos()).String()+")")
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					name := ts.Name.Name
					if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Params")) {
						continue
					}
					for _, field := range st.Fields.List {
						for _, fn := range field.Names {
							if !fn.IsExported() || written[fn.Name] {
								continue
							}
							key := gf.pkg + "." + name + "." + fn.Name
							if _, ok := unsetAllowed[key]; ok {
								seenAllowed[key] = true
								continue
							}
							if _, ok := unsetAllowed[gf.pkg+"."+name]; ok {
								seenAllowed[gf.pkg+"."+name] = true
								continue
							}
							unset = append(unset, key+" ("+fset.Position(fn.Pos()).String()+")")
						}
					}
				}
			}
		}
	}
	sort.Strings(uncalled)
	sort.Strings(unset)
	for _, s := range uncalled {
		t.Errorf("exported function with no product caller: %s", s)
	}
	for _, s := range unset {
		t.Errorf("exported Config/Options/Params field that no product code sets: %s", s)
	}
	for _, m := range []map[string]string{uncalledAllowed, unsetAllowed} {
		for key := range m {
			if !seenAllowed[key] {
				t.Errorf("allowlist entry %s names nothing the check would flag; remove it", key)
			}
		}
	}
}

// TestDisableMicroflowOnlyInBench: vswitch.Config.DisableMicroflow is
// ignored and stays only because bench/workloads.go still sets it. No other
// Go file, test files included, may set it, so the field can be deleted
// together with that one line.
func TestDisableMicroflowOnlyInBench(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			hidden := path != "." && strings.HasPrefix(d.Name(), ".")
			if path == "bench" || d.Name() == "testdata" || hidden {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var key ast.Node
			switch x := n.(type) {
			case *ast.KeyValueExpr:
				if k, ok := x.Key.(*ast.Ident); ok && k.Name == "DisableMicroflow" {
					key = k
				}
			case *ast.SelectorExpr:
				if x.Sel.Name == "DisableMicroflow" {
					key = x
				}
			}
			if key != nil {
				t.Errorf("%s: sets or reads vswitch.Config.DisableMicroflow, which is ignored", fset.Position(key.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
