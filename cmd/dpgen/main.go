// Command dpgen is the program generator CLI: it reads a high-level
// problem description (see the spec format in README.md) and writes a
// complete, self-contained hybrid parallel Go program.
//
// Usage:
//
//	dpgen -spec problem.dps -o prog.go [-defaults 40,30]
//	dpgen -builtin bandit2 -o prog.go
//	dpgen -builtin editdist -build prog
//
// With -build, the generated source is also compiled with the host Go
// toolchain into the named binary.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"dpgen"
	"dpgen/internal/problems"
)

func main() {
	var (
		specPath = flag.String("spec", "", "problem spec file")
		builtin  = flag.String("builtin", "", "generate a built-in problem instead of a spec file")
		out      = flag.String("o", "", "output .go file (default stdout)")
		defaults = flag.String("defaults", "", "comma-separated default parameter values")
		build    = flag.String("build", "", "also compile the program to this binary")
	)
	flag.Parse()

	sp, err := loadSpec(*specPath, *builtin)
	if err != nil {
		fatal(err)
	}
	var opts dpgen.GenOptions
	if *defaults != "" {
		for _, f := range strings.Split(*defaults, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				fatal(fmt.Errorf("bad -defaults entry %q: %v", f, err))
			}
			opts.ParamDefaults = append(opts.ParamDefaults, v)
		}
	}
	src, err := dpgen.Generate(sp, opts)
	if err != nil {
		fatal(err)
	}
	switch {
	case *out != "":
		if err := os.WriteFile(*out, src, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dpgen: wrote %s (%d bytes)\n", *out, len(src))
	case *build == "":
		os.Stdout.Write(src)
	}

	if *build != "" {
		if err := compile(src, *build); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dpgen: built %s\n", *build)
	}
}

func loadSpec(specPath, builtin string) (*dpgen.Spec, error) {
	switch {
	case specPath != "" && builtin != "":
		return nil, fmt.Errorf("dpgen: use either -spec or -builtin, not both")
	case specPath != "":
		return dpgen.LoadSpec(specPath)
	case builtin != "":
		p, err := problems.Get(builtin)
		if err != nil {
			return nil, err
		}
		if p.Spec.KernelCode == "" {
			return nil, fmt.Errorf("dpgen: builtin %q has no center-loop source", builtin)
		}
		return p.Spec, nil
	default:
		return nil, fmt.Errorf("dpgen: need -spec FILE or -builtin NAME (builtins: %s)", strings.Join(problems.Names(), ", "))
	}
}

// compile writes the source into a throwaway module and runs go build.
func compile(src []byte, bin string) error {
	dir, err := os.MkdirTemp("", "dpgen-build-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "main.go"), src, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module gen\n\ngo 1.22\n"), 0o644); err != nil {
		return err
	}
	abs, err := filepath.Abs(bin)
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", abs, ".")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
