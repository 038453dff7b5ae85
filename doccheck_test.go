package dpgen

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
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

// flagCallers names, for every flag a command under cmd/ defines, the
// one file outside the tests that sets it: a recipe in a doc, a CI job
// in .github/workflows/ci.yml, or Go that builds an argv (dprun's
// childArgs). A flag nothing sets is a knob no one turns; fold it into
// a constant instead of adding it here.
var flagCallers = map[string]string{
	"dpbench -exp":     "README.md",
	"dpbench -quick":   "README.md",
	"dpbench -list":    "README.md",
	"dpbench -metrics": "README.md",

	"dpfuzz -start":       "docs/TESTING.md",
	"dpfuzz -count":       ".github/workflows/ci.yml",
	"dpfuzz -duration":    "docs/TESTING.md",
	"dpfuzz -workers":     "docs/TESTING.md",
	"dpfuzz -failfast":    ".github/workflows/ci.yml",
	"dpfuzz -killrecover": "docs/FAULT_TOLERANCE.md",
	"dpfuzz -elastic":     ".github/workflows/ci.yml",
	"dpfuzz -class":       ".github/workflows/ci.yml",

	"dpgen -spec":     "README.md",
	"dpgen -builtin":  "README.md",
	"dpgen -o":        "README.md",
	"dpgen -defaults": "README.md",
	"dpgen -build":    "README.md",

	"dploadgen -addr":               ".github/workflows/ci.yml",
	"dploadgen -clients":            ".github/workflows/ci.yml",
	"dploadgen -duration":           ".github/workflows/ci.yml",
	"dploadgen -no-result-cache":    ".github/workflows/ci.yml",
	"dploadgen -require-cache-hits": ".github/workflows/ci.yml",
	"dploadgen -max-5xx":            ".github/workflows/ci.yml",

	"dprun -problem":             ".github/workflows/ci.yml",
	"dprun -distributed":         ".github/workflows/ci.yml",
	"dprun -launch":              ".github/workflows/ci.yml",
	"dprun -threads":             ".github/workflows/ci.yml",
	"dprun -check":               ".github/workflows/ci.yml",
	"dprun -stats":               ".github/workflows/ci.yml",
	"dprun -trace":               ".github/workflows/ci.yml",
	"dprun -stats-json":          ".github/workflows/ci.yml",
	"dprun -elastic":             ".github/workflows/ci.yml",
	"dprun -elastic-initial":     ".github/workflows/ci.yml",
	"dprun -scale-at":            ".github/workflows/ci.yml",
	"dprun -leave-rank":          ".github/workflows/ci.yml",
	"dprun -elastic-leave-after": ".github/workflows/ci.yml",
	"dprun -report":              ".github/workflows/ci.yml",
	"dprun -metrics-out":         ".github/workflows/ci.yml",
	"dprun -check-trace":         ".github/workflows/ci.yml",
	"dprun -trace-lenient":       ".github/workflows/ci.yml",
	"dprun -ckpt-dir":            ".github/workflows/ci.yml",
	"dprun -ckpt-every":          ".github/workflows/ci.yml",
	"dprun -kill-rank":           ".github/workflows/ci.yml",
	"dprun -crash-after-tiles":   ".github/workflows/ci.yml",
	"dprun -rank":                "README.md",
	"dprun -peers":               "README.md",
	"dprun -resume":              "cmd/dprun/supervise.go",
	"dprun -rejoin":              "cmd/dprun/supervise.go",
	"dprun -nodes":               "README.md",
	"dprun -metrics":             "README.md",
	"dprun -sendbufs":            "docs/OBSERVABILITY.md",
	"dprun -recvbufs":            "docs/OBSERVABILITY.md",
	"dprun -params":              "docs/PERF.md",
	"dprun -cpuprofile":          "docs/PERF.md",
	"dprun -memprofile":          "README.md",
	"dprun -obs-addr":            "docs/OBSERVABILITY.md",
	"dprun -priority":            "docs/PERF.md",
	"dprun -balance":             "README.md",

	"dpserve -addr":               ".github/workflows/ci.yml",
	"dpserve -max-runs":           ".github/workflows/ci.yml",
	"dpserve -run-queue":          ".github/workflows/ci.yml",
	"dpserve -tenant-concurrency": ".github/workflows/ci.yml",
	"dpserve -tenant-queue":       ".github/workflows/ci.yml",
	"dpserve -max-compiles":       "docs/SERVING.md",
	"dpserve -compile-queue":      "docs/SERVING.md",
	"dpserve -max-nodes":          "docs/SERVING.md",
	"dpserve -max-threads":        "docs/SERVING.md",
	"dpserve -spec-cache":         "docs/SERVING.md",
	"dpserve -drain":              "docs/SERVING.md",
}

// TestFlagCallers fails for a flag defined under cmd/ that flagCallers
// does not name, for a caller file that neither mentions the command
// nor contains the flag as a whole word, and for a flagCallers entry
// whose flag no command defines any more.
func TestFlagCallers(t *testing.T) {
	defined := map[string]bool{}
	dirs, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		cmd := filepath.Base(dir)
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, name := range definedFlags(t, fset, f) {
					defined[cmd+" -"+name] = true
				}
			}
		}
	}
	files := map[string]string{}
	var keys []string
	for key := range defined {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		path, ok := flagCallers[key]
		if !ok {
			t.Errorf("%s: no caller outside the tests; give it a recipe and an entry in flagCallers, or fold it into a constant", key)
			continue
		}
		text, ok := files[path]
		if !ok {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("%s: %v", key, err)
				continue
			}
			text = string(data)
			files[path] = text
		}
		cmd, flag, _ := strings.Cut(key, " ")
		word := regexp.MustCompile(`(^|[^\w-])` + regexp.QuoteMeta(flag) + `($|[^\w-])`)
		if !strings.Contains(text, cmd) || !word.MatchString(text) {
			t.Errorf("%s: %s does not call it", key, path)
		}
	}
	for key := range flagCallers {
		if !defined[key] {
			t.Errorf("flagCallers names %s, which no command defines", key)
		}
	}
}

// definedFlags returns the names of the flags f defines on the flag
// package's command line (flag.Int, flag.StringVar, flag.Var, ...).
func definedFlags(t *testing.T, fset *token.FileSet, f *ast.File) []string {
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg := 0
		switch fn := sel.Sel.Name; {
		case strings.HasSuffix(fn, "Var"):
			arg = 1
		case fn == "Bool" || fn == "Duration" || fn == "Float64" || fn == "Func" || fn == "BoolFunc" ||
			fn == "Int" || fn == "Int64" || fn == "String" || fn == "Uint" || fn == "Uint64":
		default:
			return true
		}
		if len(call.Args) <= arg {
			return true
		}
		var name string
		lit, ok := call.Args[arg].(*ast.BasicLit)
		if ok && lit.Kind == token.STRING {
			name, _ = strconv.Unquote(lit.Value)
		}
		if name == "" {
			t.Errorf("%s: flag name is not a string literal", fset.Position(call.Pos()))
			return true
		}
		names = append(names, name)
		return true
	})
	return names
}
