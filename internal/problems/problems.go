// Package problems contains the built-in dynamic programming problems
// used throughout the paper: the 2- and 3-arm Bernoulli bandits, the
// 2-arm bandit with delayed observations (Section VI), and the sequence
// problems its introduction motivates — pairwise edit distance, multiple
// sequence alignment of three sequences, and the longest common
// subsequence of three strings — plus the nonserial/variable-distance
// template exercisers: matrix-chain multiplication, optimal binary
// search trees, and the bounded knapsack with parametric weights.
//
// Each problem bundles the generator spec, the runtime kernel, and an
// independent straightforward serial solver used as the correctness
// reference by the tests and benchmarks.
package problems

import (
	"fmt"

	"dpgen/internal/engine"
	"dpgen/internal/spec"
)

// takeRun starts a run-form kernel body written for the loop order whose
// innermost variable is Vars[inner]: it returns how many of the cells on
// offer the body computes — all c.N of them, or one when another
// variable is innermost and the body's hoisting does not apply — and
// reports that count in c.Done.
func takeRun(c *engine.Ctx, inner int) int64 {
	n := c.N
	if c.Inner != inner {
		n = 1
	}
	c.Done = n
	return n
}

// Problem is a ready-to-run dynamic programming problem.
type Problem struct {
	// Spec is the generator input description.
	Spec *spec.Spec
	// Kernel is the center-loop body for the in-process runtime.
	Kernel engine.Kernel
	// Serial computes the goal value with an independent nested-loop
	// solver; the reference for correctness checks.
	Serial func(params []int64) float64
	// DefaultParams are sensible parameter values for examples and
	// benches.
	DefaultParams []int64
	// UseMax marks problems whose answer is the maximum over the whole
	// space (engine Result.Max) rather than the goal-location value —
	// e.g. local sequence alignment.
	UseMax bool
	// FixedParams marks problems whose kernel closes over concrete
	// inputs sized by DefaultParams (the sequence problems bake their
	// strings into the closure), so the parameters are not free: running
	// with other values reads out of the baked-in inputs' bounds.
	// Callers accepting untrusted parameter values (dpserve) must reject
	// anything but DefaultParams for these.
	FixedParams bool
}

// builtins is the registry: each built-in problem's name and the
// constructor that builds it at its small default size, in Names'
// order. Sequence problems use deterministic seeded inputs.
var builtins = []struct {
	name  string
	build func() *Problem
}{
	{"bandit2", Bandit2},
	{"bandit3", Bandit3},
	{"bandit2delay", Bandit2Delay},
	{"editdist", func() *Problem { return EditDistanceSeeded(1, 2) }},
	{"lcs2", func() *Problem { return LCS2Seeded(5) }},
	{"lcs3", func() *Problem { return LCS3Seeded(2) }},
	{"msa3", func() *Problem { return MSA3Seeded(3) }},
	{"msa4", func() *Problem { return MSA4Seeded(4) }},
	{"localalign", func() *Problem { return SmithWatermanSeeded(6) }},
	{"mcm", MCM},
	{"obst", OBST},
	{"knap", Knapsack},
}

// Names lists the registry's names in a stable order.
func Names() []string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.name
	}
	return names
}

// Get builds the registry problem called name, and only that one.
func Get(name string) (*Problem, error) {
	for _, b := range builtins {
		if b.name == name {
			return b.build(), nil
		}
	}
	return nil, fmt.Errorf("problems: unknown problem %q (have %v)", name, Names())
}
