// Package doclint enforces the repository's documentation contract: every
// package has a package comment and every exported symbol — functions,
// methods on exported types, types, constants and variables — carries a doc
// comment. The contract is enforced by this package's test, which go test
// ./... runs on every PR, so the godoc surface cannot silently grow
// undocumented exports.
//
// The rules follow the classic golint conventions: a declaration group
// (const/var/type block) is satisfied by a doc comment on the group or on
// the individual spec; methods need docs when both the method name and the
// receiver's type name are exported (methods on unexported types are not
// part of the godoc surface). Test files are exempt — their exported
// helpers document themselves by use.
package doclint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// Violation is one undocumented export (or missing package comment).
type Violation struct {
	// Pos is the file position of the offending declaration.
	Pos token.Position
	// Symbol names the undocumented export ("package foo", "Type.Method").
	Symbol string
}

// String renders the violation in file:line: message form.
func (v Violation) String() string {
	return fmt.Sprintf("%s:%d: %s has no doc comment", v.Pos.Filename, v.Pos.Line, v.Symbol)
}

// skipDirs are directory names never descended into.
var skipDirs = map[string]bool{".git": true, "testdata": true, ".github": true}

// Check walks every non-test Go file under root and returns the
// documentation violations, sorted by position.
func Check(root string) ([]Violation, error) {
	fset := token.NewFileSet()
	// pkgFiles collects each directory's parsed files so the
	// package-comment rule can be judged per package, not per file.
	pkgFiles := map[string][]*ast.File{}
	var dirs []string

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDirs[d.Name()] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("doclint: %w", err)
		}
		dir := filepath.Dir(path)
		if _, seen := pkgFiles[dir]; !seen {
			dirs = append(dirs, dir)
		}
		pkgFiles[dir] = append(pkgFiles[dir], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var out []Violation
	for _, dir := range dirs {
		files := pkgFiles[dir]
		hasPkgDoc := false
		for _, f := range files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
			out = append(out, checkFile(fset, f)...)
		}
		if !hasPkgDoc {
			out = append(out, Violation{
				Pos:    fset.Position(files[0].Package),
				Symbol: "package " + files[0].Name.Name,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out, nil
}

// checkFile reports the undocumented exported declarations of one file.
func checkFile(fset *token.FileSet, f *ast.File) []Violation {
	var out []Violation
	flag := func(pos token.Pos, symbol string) {
		out = append(out, Violation{Pos: fset.Position(pos), Symbol: symbol})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv == nil {
				flag(d.Pos(), "func "+d.Name.Name)
				continue
			}
			if recv, exported := receiverName(d.Recv); exported {
				flag(d.Pos(), "method "+recv+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			if d.Tok == token.IMPORT || d.Doc != nil {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
						flag(s.Pos(), "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					if s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, name := range s.Names {
						if name.IsExported() {
							flag(name.Pos(), d.Tok.String()+" "+name.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName extracts the receiver's type name and whether it is
// exported (pointer and generic receivers unwrapped).
func receiverName(recv *ast.FieldList) (string, bool) {
	if len(recv.List) != 1 {
		return "", false
	}
	expr := recv.List[0].Type
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name, e.IsExported()
		default:
			return "", false
		}
	}
}
