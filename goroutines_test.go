package adhocga

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// goAllowed lists every function of the module allowed to start a
// goroutine, keyed by file and enclosing function, with the reason. All
// compute runs on the session pool's workers (runner.Pool), and
// NewSession keeps one P beyond the pool for I/O; a go statement anywhere
// else would run work outside that budget.
var goAllowed = map[string]string{
	"session.go:Session.SubmitNamed":              "one per job: waits on the pool for the job's slot, runs it, and publishes its end",
	"cmd/adhocd/main.go:run":                      "the HTTP server's accept loop, for the daemon's lifetime",
	"internal/runner/runner.go:Pool.Run":          "the pool's bounded workers, one per slot acquired for the batch",
	"internal/runner/runner.go:Pool.Share":        "helpers for a task's fan-out, each holding a spare pool slot",
	"internal/service/persist.go:Server.watch":    "one per live job: waits it out to write its terminal record",
	"internal/service/service.go:Server.handleWS": "one per WebSocket stream: reads pings and the client's close",
}

// TestGoStatementsAllowlisted parses every non-test file of the module
// (bench/, a module of its own that generates load, is out of scope) and
// fails on a go statement in a function goAllowed does not list, or on an
// entry no go statement uses.
func TestGoStatementsAllowlisted(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || name == "bench" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
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
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = receiverType(fn.Recv.List[0].Type) + "." + name
			}
			key := filepath.ToSlash(path) + ":" + name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					if _, ok := goAllowed[key]; !ok {
						t.Errorf("%s: go statement in %s, which goAllowed does not list", fset.Position(g.Pos()), key)
					}
					used[key] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range goAllowed {
		if !used[key] {
			t.Errorf("goAllowed lists %s, which starts no goroutine; delete the entry", key)
		}
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
