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
	if unused := unshipped(t, shippedTree(t), ".", "adhocga", false); len(unused) > 0 {
		t.Errorf("exported root funcs and methods with no shipped caller (unexport or delete them): %s",
			strings.Join(unused, ", "))
	}
}

// kernelPackages are the packages of the evaluation kernel, held to the
// root package's shipped-caller rule.
var kernelPackages = []string{
	"internal/game",
	"internal/trust",
	"internal/network",
	"internal/strategy",
	"internal/tournament",
	"internal/ipdrp",
}

// TestKernelSurfaceHasShippedCallers applies the root rule to each kernel
// package, counting calls from inside the package too: every exported func
// is named as pkg.F by a non-test file that imports the package, or as F
// by one of the package's own; every exported method is selected as .M
// by some non-test file. Kernel values reach other packages through
// fields (a tournament merges gossip through its game.Board's
// trust.Matrix), so a method selection counts anywhere.
func TestKernelSurfaceHasShippedCallers(t *testing.T) {
	tree := shippedTree(t)
	for _, dir := range kernelPackages {
		if unused := unshipped(t, tree, dir, "adhocga/"+dir, true); len(unused) > 0 {
			t.Errorf("%s: exported funcs and methods with no shipped caller (unexport or delete them): %s",
				dir, strings.Join(unused, ", "))
		}
	}
}

// shippedFile is what the shipped-caller rules need of one non-test file.
type shippedFile struct {
	dir      string
	imports  map[string]string // import path -> local name
	selected map[string]bool   // every .M selected
	named    map[string]bool   // every X.M with X an identifier, as "X.M"
	idents   map[string]bool   // every identifier but declared func names
	decls    []*ast.FuncDecl
}

// shippedTree parses every non-test .go file of the module, testdata and
// hidden directories excluded.
func shippedTree(t *testing.T) []shippedFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []shippedFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		sf := shippedFile{
			dir:      filepath.Dir(path),
			imports:  map[string]string{},
			selected: map[string]bool{},
			named:    map[string]bool{},
			idents:   map[string]bool{},
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			local := p[strings.LastIndexByte(p, '/')+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			sf.imports[p] = local
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				sf.decls = append(sf.decls, fn)
			}
		}
		declared := map[*ast.Ident]bool{}
		for _, fn := range sf.decls {
			declared[fn.Name] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if !declared[x] {
					sf.idents[x.Name] = true
				}
			case *ast.SelectorExpr:
				sf.selected[x.Sel.Name] = true
				if id, ok := x.X.(*ast.Ident); ok {
					sf.named[id.Name+"."+x.Sel.Name] = true
				}
			}
			return true
		})
		files = append(files, sf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// unshipped returns the exported funcs and methods declared in dir
// (import path pkg) that no non-test file of another directory importing
// pkg names: funcs as local.F, methods as .M. With self set, the
// package's own files count as callers too (funcs named as F), and a
// method selection counts in any file. Methods in interfaceMethods are
// exempt.
func unshipped(t *testing.T, tree []shippedFile, dir, pkg string, self bool) []string {
	t.Helper()
	var funcs, methods []string
	for _, f := range tree {
		if f.dir != dir {
			continue
		}
		for _, fn := range f.decls {
			if !fn.Name.IsExported() {
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
	if len(funcs)+len(methods) == 0 {
		t.Fatalf("found no exported funcs or methods in %s; the scan is broken", dir)
	}

	calledFuncs, calledMethods := map[string]bool{}, map[string]bool{}
	for _, f := range tree {
		if self && f.dir == dir {
			for name := range f.idents {
				calledFuncs[name] = true
			}
		}
		if self {
			for name := range f.selected {
				calledMethods[name] = true
			}
		}
		local, ok := f.imports[pkg]
		if f.dir == dir || !ok {
			continue
		}
		for name := range f.named {
			if x, sel, _ := strings.Cut(name, "."); x == local {
				calledFuncs[sel] = true
			}
		}
		for name := range f.selected {
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
	return unused
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
