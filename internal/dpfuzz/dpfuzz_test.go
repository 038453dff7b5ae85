package dpfuzz

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"dpgen/internal/engine"
)

// TestRandomSpecs is the fixed seed sweep: every seed in [0,
// randomSpecCount) is generated and pushed through all four oracle
// layers (the cost-gated Ehrhart layer must still run for a healthy
// fraction of them). Failures print the minimized instance as a Go
// literal ready for regress_test.go.
func TestRandomSpecs(t *testing.T) {
	n := uint64(200)
	if testing.Short() {
		n = 32
	}
	var ehrhartRan atomic.Int64
	t.Run("sweep", func(t *testing.T) {
		for seed := uint64(0); seed < n; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
				t.Parallel()
				in := Generate(seed)
				checked, err := CheckAll(in)
				if checked {
					ehrhartRan.Add(1)
				}
				if err != nil {
					reportFailure(t, in, err)
				}
			})
		}
	})
	if got, min := ehrhartRan.Load(), int64(n/2); got < min && !t.Failed() {
		t.Errorf("Ehrhart layer ran for only %d of %d specs (cost gate too tight; want >= %d)", got, n, min)
	}
}

// reportFailure minimizes the failing instance and logs it as a
// reproducible Go literal.
func reportFailure(t *testing.T, in *Instance, err error) {
	t.Helper()
	min := Minimize(in, func(c *Instance) bool {
		_, e := CheckAll(c)
		return e != nil
	})
	_, merr := CheckAll(min)
	t.Errorf("oracle failure: %v\nminimized failure: %v\nreproduce with:\n%s", err, merr, GoLiteral(min))
}

// TestCheckEngineCapturesWholeRuns: a kernel that miscomputes cell
// t = 1 of every multi-cell offer must be caught by the single-threaded
// layer's cell-by-cell comparison, naming the cell. A capture that
// recorded only each call's first cell would never see the bad value
// and would fail the cell count instead.
func TestCheckEngineCapturesWholeRuns(t *testing.T) {
	hit := 0
	for seed := uint64(0); seed < 16; seed++ {
		in := Generate(seed)
		var fired atomic.Bool
		good := fuzzKernel(len(in.Spec.Deps))
		mutant := func(c *engine.Ctx) {
			good(c)
			if c.Done > 1 {
				c.V[c.Loc+c.Step] += 1
				fired.Store(true)
			}
		}
		err := checkEngine(in, mutant)
		if !fired.Load() {
			continue // no multi-cell offer: the mutant is the good kernel
		}
		hit++
		if err == nil || !strings.HasPrefix(err.Error(), "cell [") {
			t.Errorf("seed %d: mutant kernel gave %v, want a cell mismatch", seed, err)
		}
	}
	if hit == 0 {
		t.Fatal("no instance offered a multi-cell run")
	}
}

// TestGenerateDeterministic: the same seed must yield byte-identical
// instances, or corpus seeds and minimized literals would not
// reproduce.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if GoLiteral(a) != GoLiteral(b) {
			t.Fatalf("seed %d: non-deterministic generation:\n%s\nvs\n%s", seed, GoLiteral(a), GoLiteral(b))
		}
	}
}

// TestGenerateDiverse: the sweep must actually cover the spec space —
// every dimension count, every template class, both template sign
// directions, multi-dep specs, and specs with extra constraints.
func TestGenerateDiverse(t *testing.T) {
	dims := map[int]int{}
	var extras, multiDep, negSign, posSign int
	var vardist, ranges, varSteps, varCounts int
	for seed := uint64(0); seed < 200; seed++ {
		in := Generate(seed)
		d := len(in.Spec.Vars)
		dims[d]++
		if len(in.Spec.Constraints) > 2*d {
			extras++
		}
		if len(in.Spec.Deps) > 1 {
			multiDep++
		}
		if in.Spec.HasRangeDeps() {
			ranges++
		} else if in.Spec.HasExtendedDeps() {
			vardist++
		}
		for j := range in.Spec.Deps {
			dep := &in.Spec.Deps[j]
			for _, r := range dep.Vec {
				if r > 0 {
					posSign++
				} else if r < 0 {
					negSign++
				}
			}
			if dep.PDir != nil {
				varSteps++
			}
			if dep.Len != nil && !dep.Len.IsConst() {
				varCounts++
			}
		}
	}
	for d := 1; d <= 4; d++ {
		if dims[d] < 20 {
			t.Errorf("only %d specs of dimension %d in 200 seeds", dims[d], d)
		}
	}
	if extras < 30 {
		t.Errorf("only %d specs with extra constraints", extras)
	}
	if multiDep < 50 {
		t.Errorf("only %d specs with multiple dependencies", multiDep)
	}
	if posSign == 0 || negSign == 0 {
		t.Errorf("template signs not diverse: %d positive, %d negative components", posSign, negSign)
	}
	if vardist < 20 {
		t.Errorf("only %d variable-distance specs in 200 seeds", vardist)
	}
	if ranges < 20 {
		t.Errorf("only %d range-template specs in 200 seeds", ranges)
	}
	if varSteps == 0 {
		t.Error("no range template with a parameter-affine step in 200 seeds")
	}
	if varCounts == 0 {
		t.Error("no range template with a non-constant count in 200 seeds")
	}
}

// TestGenerateClassForces: GenerateClass must honor the forced class
// on every seed while matching Generate's draw on everything else the
// class does not control.
func TestGenerateClassForces(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		if in := GenerateClass(seed, ClassConst); in.Spec.HasExtendedDeps() {
			t.Errorf("seed %d: forced const class produced extended deps", seed)
		}
		if in := GenerateClass(seed, ClassVarDist); !in.Spec.HasExtendedDeps() || in.Spec.HasRangeDeps() {
			t.Errorf("seed %d: forced vardist class produced ranges=%v extended=%v",
				seed, in.Spec.HasRangeDeps(), in.Spec.HasExtendedDeps())
		}
		if in := GenerateClass(seed, ClassRange); !in.Spec.HasRangeDeps() {
			t.Errorf("seed %d: forced range class produced no range dep", seed)
		}
		if in := GenerateClass(seed, ClassAny); GoLiteral(in) != GoLiteral(Generate(seed)) {
			t.Errorf("seed %d: GenerateClass(ClassAny) differs from Generate", seed)
		}
	}
}

// TestMinimizeShrinks: the minimizer must reduce a large failing
// instance to something strictly simpler while preserving the failure
// (here simulated by a predicate on the dependence count).
func TestMinimizeShrinks(t *testing.T) {
	var in *Instance
	for seed := uint64(0); ; seed++ {
		in = Generate(seed)
		if len(in.Spec.Deps) >= 2 && len(in.Spec.Vars) >= 2 {
			break
		}
	}
	fails := func(c *Instance) bool { return len(c.Spec.Deps) >= 1 }
	min := Minimize(in, fails)
	if err := min.Spec.Validate(); err != nil {
		t.Fatalf("minimized spec invalid: %v", err)
	}
	if len(min.Spec.Deps) != 1 {
		t.Errorf("minimizer kept %d deps, want 1", len(min.Spec.Deps))
	}
	if min.N >= in.N && min.N > 1 {
		t.Errorf("minimizer did not shrink N: %d -> %d", in.N, min.N)
	}
}
