// The boundary test enforces the API redesign's central rule: simulators are
// constructed in exactly two places — internal/cpu itself and this package.
// Everything else (sweeps, benches, commands, examples, tests) goes through
// simrun.Point, so warm-up sharing, trace resolution and oracle attachment
// stay uniform. It is a lint written as a test: any new cpu.New call site
// outside the two packages fails CI with the offending position.
package simrun_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// allowedDirs are the packages permitted to construct cpu.Sim values,
// relative to the module root.
var allowedDirs = []string{
	filepath.Join("internal", "cpu"),
	filepath.Join("internal", "simrun"),
}

func allowed(rel string) bool {
	dir := filepath.Dir(rel)
	for _, a := range allowedDirs {
		if dir == a {
			return true
		}
	}
	return false
}

// cpuImportName returns the local name the file binds the cpu package to,
// or "" if the file does not import it.
func cpuImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || path != "repro/internal/cpu" {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "cpu"
	}
	return ""
}

func TestSimulatorConstructionBoundary(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if allowed(rel) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgName := cpuImportName(f)
		if pkgName == "" {
			return nil
		}
		checked++
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Name != pkgName {
				return true
			}
			if sel.Sel.Name == "New" {
				t.Errorf("%s: %s.%s outside internal/cpu and internal/simrun — construct simulations through simrun.Point",
					fset.Position(sel.Pos()), pkgName, sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The walk must actually have seen cpu-importing files (e.g. result
	// consumers), or a layout change silently disabled the lint.
	if checked == 0 {
		t.Fatal("boundary lint scanned no files importing repro/internal/cpu — walk root is wrong")
	}
}
