package codegen

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dpgen/internal/dpfuzz"
	"dpgen/internal/engine"
	"dpgen/internal/problems"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSeed selects the fuzz-generated spec the golden test pins:
// seed 2 draws a 3-D space with two binding diagonal constraints,
// three mixed-sign magnitude-2 templates (r1..r3), and a shuffled
// loop order — a far more irregular shape than the hand-written
// problem library covers. (The seed moved from 20 when the generator
// grew template classes; seed 20 now draws a single-dependence spec.)
const goldenSeed = 2

// fuzzSeed2Spec is the golden fuzz spec with its kernel source attached.
func fuzzSeed2Spec(t *testing.T) *spec.Spec {
	t.Helper()
	sp := dpfuzz.Generate(goldenSeed).Spec
	if d := len(sp.Vars); d != 3 {
		t.Fatalf("seed %d no longer draws a 3-D spec (got %d-D); pick a new goldenSeed", goldenSeed, d)
	}
	sp.KernelCode = `v := 1.0 + 0.0625*float64((v0*17+v1*3+v2*7)%23)
if is_valid_r1 {
	v += 0.5 * V[loc_r1]
}
if is_valid_r2 {
	v += 0.25 * V[loc_r2]
}
if is_valid_r3 {
	v += 0.125 * V[loc_r3]
}
V[loc] = v`
	return sp
}

// TestGoldenFuzzSpec generates the complete program for a
// dpfuzz-generated spec and compares it byte-for-byte against the
// committed golden file, so any unintended change to emitted loop
// bounds, mapping functions, pack/unpack scans or the runtime skeleton
// shows up as a readable diff. Regenerate intentionally with
//
//	go test ./internal/codegen -run TestGoldenFuzzSpec -update
func TestGoldenFuzzSpec(t *testing.T) {
	sp := fuzzSeed2Spec(t)

	src, err := Generate(sp, Options{ParamDefaults: []int64{9}})
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", fmt.Sprintf("fuzz_seed%d.go.golden", goldenSeed))
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(src, want) {
		t.Errorf("generated source differs from %s (run with -update if the change is intended)\ngot %d bytes, want %d", golden, len(src), len(want))
		for i := 0; i < len(src) && i < len(want); i++ {
			if src[i] != want[i] {
				lo := i - 80
				if lo < 0 {
					lo = 0
				}
				hi := i + 80
				if hi > len(src) {
					hi = len(src)
				}
				t.Errorf("first difference at byte %d:\n...%s...", i, src[lo:hi])
				break
			}
		}
	}
}

// TestGoldenFuzzSpecRuns compiles the golden spec's program and checks
// it against an in-process engine run with the equivalent kernel —
// bit-identical, like every other differential in the fuzz harness.
func TestGoldenFuzzSpecRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a program")
	}
	sp := fuzzSeed2Spec(t)
	N := int64(9)
	got := buildAndRun(t, sp, "-N", fmt.Sprint(N), "-nodes", "2", "-threads", "2")

	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	kernel := func(c *engine.Ctx) {
		v := 1.0 + 0.0625*float64((c.X[0]*17+c.X[1]*3+c.X[2]*7)%23)
		if c.DepValid[0] {
			v += 0.5 * c.V[c.DepLoc[0]]
		}
		if c.DepValid[1] {
			v += 0.25 * c.V[c.DepLoc[1]]
		}
		if c.DepValid[2] {
			v += 0.125 * c.V[c.DepLoc[2]]
		}
		c.V[c.Loc] = v
	}
	res, err := engine.Run(tl, kernel, []int64{N}, engine.Config{Nodes: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != res.Value {
		t.Fatalf("generated program value %v, engine reference %v (want bit-exact)", got, res.Value)
	}
}

// TestGoldenMCM pins the emitted program for the matrix-chain builtin —
// the nonserial (range-template) case: the golden file locks down the
// len_/stride_ symbol emission, the prefix-clamp straight-line code in
// the boundary nest, and the multi-tile crossing tables that a
// reach-23 template over width-8 tiles produces.
func TestGoldenMCM(t *testing.T) {
	p := problems.MCM()
	src, err := Generate(p.Spec, Options{ParamDefaults: p.DefaultParams})
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "mcm.go.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(src, want) {
		t.Errorf("generated source differs from %s (run with -update if the change is intended)\ngot %d bytes, want %d", golden, len(src), len(want))
		for i := 0; i < len(src) && i < len(want); i++ {
			if src[i] != want[i] {
				lo := i - 80
				if lo < 0 {
					lo = 0
				}
				hi := i + 80
				if hi > len(src) {
					hi = len(src)
				}
				t.Errorf("first difference at byte %d:\n...%s...", i, src[lo:hi])
				break
			}
		}
	}
}

// TestGoldenMCMRuns compiles the matrix-chain program and requires the
// result to match both the in-process engine and the serial reference
// bit-for-bit, across a parameter value on each side of the tile width.
func TestGoldenMCMRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a program")
	}
	p := problems.MCM()
	for _, N := range []int64{7, 20} {
		got := buildAndRun(t, p.Spec, "-N", fmt.Sprint(N), "-nodes", "2", "-threads", "2")
		tl, err := tiling.New(p.Spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(tl, p.Kernel, []int64{N}, engine.Config{Nodes: 2, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got != res.Value {
			t.Fatalf("N=%d: generated program value %v, engine %v (want bit-exact)", N, got, res.Value)
		}
		if want := p.Serial([]int64{N}); got != want {
			t.Fatalf("N=%d: generated program value %v, serial %v (want bit-exact)", N, got, want)
		}
	}
}
