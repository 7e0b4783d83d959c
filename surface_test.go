package adhocga

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

// interfaceMethods are exported method names a root type defines to
// satisfy an interface (JobSpec, fmt.Stringer, error, json.Marshaler):
// they are called through the interface, so no caller names them.
var interfaceMethods = map[string]bool{
	"Kind":        true,
	"String":      true,
	"Error":       true,
	"MarshalJSON": true,
}

// TestRootSurfaceHasShippedCallers keeps the root package's exported
// funcs and methods down to what shipped code uses. Every exported func
// must be named as adhocga.F by some non-test .go file outside the root
// package (cmd/, examples/, internal/, bench/, ci/). Every exported
// method of an exported root type must be selected as .M in such a file
// whose package imports adhocga; without type information a same-named
// selection counts. Doc examples and tests do not count as callers.
func TestRootSurfaceHasShippedCallers(t *testing.T) {
	fset := token.NewFileSet()

	// The root package's exported funcs and methods.
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var funcs, methods []string
	for _, path := range roots {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			if fn.Recv == nil {
				funcs = append(funcs, fn.Name.Name)
				continue
			}
			recv := receiverType(fn.Recv.List[0].Type)
			if ast.IsExported(recv) && !interfaceMethods[fn.Name.Name] {
				methods = append(methods, recv+"."+fn.Name.Name)
			}
		}
	}
	if len(funcs) == 0 || len(methods) == 0 {
		t.Fatalf("found %d exported funcs and %d methods in the root package; the scan is broken", len(funcs), len(methods))
	}

	// What shipped code outside the root package names.
	calledFuncs := map[string]bool{}              // F in adhocga.F
	selectedByDir := map[string]map[string]bool{} // dir -> every .M selected there
	importsRoot := map[string]bool{}              // dir -> some file imports adhocga
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.Dir(path)
		if dir == "." || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "adhocga" {
				local = "adhocga"
				if imp.Name != nil {
					local = imp.Name.Name
				}
				importsRoot[dir] = true
			}
		}
		sel := selectedByDir[dir]
		if sel == nil {
			sel = map[string]bool{}
			selectedByDir[dir] = sel
		}
		ast.Inspect(f, func(n ast.Node) bool {
			se, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			sel[se.Sel.Name] = true
			if x, ok := se.X.(*ast.Ident); ok && local != "" && x.Name == local {
				calledFuncs[se.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	calledMethods := map[string]bool{}
	for dir := range importsRoot {
		for name := range selectedByDir[dir] {
			calledMethods[name] = true
		}
	}

	var unused []string
	for _, name := range funcs {
		if !calledFuncs[name] {
			unused = append(unused, name)
		}
	}
	for _, m := range methods {
		if !calledMethods[m[strings.IndexByte(m, '.')+1:]] {
			unused = append(unused, m)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("exported root funcs and methods with no shipped caller (unexport or delete them): %s",
			strings.Join(unused, ", "))
	}
}

// receiverType returns the type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func receiverType(e ast.Expr) string {
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
