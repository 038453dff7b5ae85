package dpgen

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// docCheckedPackages are the packages held to the every-exported-
// identifier-documented bar, enforced in CI (see .github/workflows/
// ci.yml). Grow this list as packages reach full coverage.
var docCheckedPackages = []string{
	"internal/mpi",
	"internal/mpi/tcp",
	"internal/engine",
	"internal/sched",
	"internal/tiling",
	"internal/obs",
	"internal/serve",
}

// TestGodocCoverage fails for every exported top-level identifier (and
// every method on an exported type) in docCheckedPackages that lacks a
// doc comment. A const/var/type group counts as documented when the
// group has a doc comment.
func TestGodocCoverage(t *testing.T) {
	for _, dir := range docCheckedPackages {
		dir := dir
		t.Run(strings.ReplaceAll(dir, "/", "_"), func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range pkgs {
				for _, f := range pkg.Files {
					for _, missing := range undocumented(fset, f) {
						t.Error(missing)
					}
				}
			}
		})
	}
}

// undocumented returns one message per exported identifier in f that
// has no doc comment.
func undocumented(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, what, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil {
				recv := receiverTypeName(d.Recv)
				if !ast.IsExported(recv) {
					continue
				}
				report(d.Pos(), "method", recv+"."+d.Name.Name)
			} else {
				report(d.Pos(), "function", d.Name.Name)
			}
		case *ast.GenDecl:
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !groupDoc && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					if groupDoc || s.Doc != nil {
						continue
					}
					for _, name := range s.Names {
						if name.IsExported() {
							report(s.Pos(), "const/var", name.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverTypeName extracts the bare type name of a method receiver
// (stripping pointers and type parameters).
func receiverTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
