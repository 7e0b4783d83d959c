package adhocga

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The shipped-caller rule keeps every package down to what shipped
// code uses. It type-checks every non-test file of the module and of
// bench/ (a module of its own whose workloads drive the internal
// packages) and fails on a func or method that no non-test file
// references outside the func's own body. An exported root func, or an
// exported method of an exported root type, needs a reference from
// outside the root package: the library surface exists for its callers.
// A method is exempt when its receiver implements an interface that
// declares it (fmt.Stringer, error, jobstore.Store), since it is called
// through the interface. Tests and doc examples are not callers. The
// three tests below split the packages between them and share one
// type-checked tree.

// kernelPackages are the packages of the evaluation kernel.
var kernelPackages = map[string]bool{
	"adhocga/internal/game":       true,
	"adhocga/internal/trust":      true,
	"adhocga/internal/network":    true,
	"adhocga/internal/strategy":   true,
	"adhocga/internal/tournament": true,
	"adhocga/internal/ipdrp":      true,
}

// TestRootSurfaceHasShippedCallers applies the rule to the root package.
func TestRootSurfaceHasShippedCallers(t *testing.T) {
	checkShippedCallers(t, func(pkg string) bool { return pkg == "adhocga" })
}

// TestKernelSurfaceHasShippedCallers applies the rule to the kernel
// packages.
func TestKernelSurfaceHasShippedCallers(t *testing.T) {
	checkShippedCallers(t, func(pkg string) bool { return kernelPackages[pkg] })
}

// TestFuncsHaveShippedCallers applies the rule to every other package,
// bench/ and the commands included.
func TestFuncsHaveShippedCallers(t *testing.T) {
	checkShippedCallers(t, func(pkg string) bool { return pkg != "adhocga" && !kernelPackages[pkg] })
}

// checkShippedCallers fails on each func or method with no shipped
// caller in the packages for which in reports true.
func checkShippedCallers(t *testing.T, in func(pkg string) bool) {
	t.Helper()
	tree, err := loadShippedTree()
	if err != nil {
		t.Fatal(err)
	}
	var checked int
	var unused []string
	for _, fn := range tree.funcs {
		if !in(fn.Pkg().Path()) {
			continue
		}
		checked++
		if tree.referenced(fn) || tree.implementsInterface(fn) {
			continue
		}
		unused = append(unused, fn.FullName())
	}
	if checked == 0 {
		t.Fatal("found no funcs; the scan is broken")
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("funcs and methods with no shipped caller (delete them):\n\t%s", strings.Join(unused, "\n\t"))
	}
}

// loadShippedTree type-checks the tree once for all three tests.
var loadShippedTree = sync.OnceValues(checkShippedTree)

// shippedTree is the type-checked non-test code of the module and bench/.
type shippedTree struct {
	funcs      []*types.Func        // every declared func and method but main and init
	interfaces []*types.Interface   // every named interface in scope of a package
	refs       map[*types.Func]bool // referenced outside its own body
	outside    map[*types.Func]bool // referenced from another package
}

// referenced reports whether fn has a shipped caller: any reference, or
// for an exported root func or method of an exported root type, one from
// another package.
func (s *shippedTree) referenced(fn *types.Func) bool {
	if fn.Pkg().Path() == "adhocga" && fn.Exported() {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil || receiverNamed(recv.Type()).Obj().Exported() {
			return s.outside[fn]
		}
	}
	return s.refs[fn]
}

// implementsInterface reports whether fn is a method that its receiver
// has to satisfy some interface declaring it.
func (s *shippedTree) implementsInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := receiverNamed(recv.Type())
	for _, iface := range s.interfaces {
		if !declares(iface, fn.Name()) {
			continue
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

func declares(iface *types.Interface, name string) bool {
	for i := range iface.NumMethods() {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// receiverNamed returns the named type of a receiver of type T or *T.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// checkShippedTree parses the non-test files of every package directory
// (testdata and hidden directories excluded), type-checks them from
// source, with the standard library from its export data, and records
// every reference to a declared func.
func checkShippedTree() (*shippedTree, error) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// Module paths mirror directories: bench/ is module adhocga/bench.
		pkg := path.Join("adhocga", filepath.ToSlash(filepath.Dir(p)))
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	imp := &sourceImporter{
		fset:  fset,
		files: files,
		info:  info,
		std:   importer.ForCompiler(fset, "gc", nil),
		pkgs:  map[string]*types.Package{},
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	tree := &shippedTree{refs: map[*types.Func]bool{}, outside: map[*types.Func]bool{}}
	scopes := map[*types.Package]bool{types.Universe.Lookup("error").Pkg(): false}
	tree.interfaces = append(tree.interfaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, p := range paths {
		pkg, err := imp.Import(p)
		if err != nil {
			return nil, err
		}
		scopes[pkg] = true
		for _, dep := range pkg.Imports() {
			scopes[dep] = true
		}
		for _, f := range files[p] {
			for _, decl := range f.Decls {
				fd, isFunc := decl.(*ast.FuncDecl)
				var self *types.Func
				if isFunc {
					self = info.Defs[fd.Name].(*types.Func)
					name := fd.Name.Name
					if !(fd.Recv == nil && (name == "init" || name == "main" && pkg.Name() == "main")) {
						tree.funcs = append(tree.funcs, self)
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := info.Uses[id].(*types.Func)
					if !ok {
						return true
					}
					fn = fn.Origin()
					if fn == self {
						return true
					}
					tree.refs[fn] = true
					if fn.Pkg() != pkg {
						tree.outside[fn] = true
					}
					return true
				})
			}
		}
	}
	for pkg := range scopes {
		if pkg == nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				tree.interfaces = append(tree.interfaces, iface)
			}
		}
	}
	return tree, nil
}

// sourceImporter type-checks the module's packages from their parsed
// files and imports the standard library from export data.
type sourceImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	std   types.Importer
	pkgs  map[string]*types.Package
}

func (s *sourceImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := s.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := s.files[p]
	if !ok {
		return s.std.Import(p)
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(p, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[p] = pkg
	return pkg, nil
}
