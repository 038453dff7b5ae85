package fm_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dpgen/internal/dpfuzz"
	"dpgen/internal/fm"
	"dpgen/internal/lin"
	"dpgen/internal/loopgen"
	"dpgen/internal/problems"
	"dpgen/internal/simplex"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// referencePrune is the pruner fm used before simplex.Prune: a
// feasibility solve, then one fresh big.Rat two-phase solve per
// inequality of the shrinking system. It survives here as the reference
// the one-tableau pruner must match inequality for inequality.
func referencePrune(sys *lin.System) []lin.Ineq {
	if !simplex.FeasibleBig(sys) {
		return sys.Ineqs
	}
	cur := lin.NewSystem(sys.Space())
	cur.Ineqs = slices.Clone(sys.Ineqs)
	for i := 0; i < len(cur.Ineqs); {
		if simplex.RedundantBig(cur, i) {
			cur.Ineqs = slices.Delete(cur.Ineqs, i, i+1)
			continue
		}
		i++
	}
	return cur.Ineqs
}

// analyze runs everything the generator derives from a spec: the
// iteration nest and the whole tiling analysis, which between them
// reach the pruner through Eliminate, EliminateAll, Simplify and
// loopgen.Build.
func analyze(sp *spec.Spec) error {
	if _, err := loopgen.Build(sp.System(), sp.Order(), fm.Options{Prune: fm.PruneSimplex}); err != nil {
		return err
	}
	_, err := tiling.New(sp)
	return err
}

// TestPruneMatchesReferenceEverywhere: for every builtin, every
// specs/*.dps and a sweep of dpfuzz-generated specs, every system the
// analysis prunes keeps the same inequalities in the same order as the
// reference pruner — which is what keeps every nest, golden program and
// wire format unchanged — and not one question falls back to big.Rat.
// The analysis is parametric, so instance sizes never reach the
// simplex; the builtins carry the registry tile widths and the spec
// files the paper-scale ones.
func TestPruneMatchesReferenceEverywhere(t *testing.T) {
	var where string
	pruned, dropped := 0, 0
	// The analysis prunes many systems more than once (every pack nest
	// starts from the same local system); the reference, which is the
	// slow side, answers each distinct system once.
	reference := map[string][]lin.Ineq{}
	fm.ObservePrune(func(in *lin.System, kept []lin.Ineq) {
		pruned++
		dropped += len(in.Ineqs) - len(kept)
		key := fmt.Sprint(in.Space(), in.Ineqs) // in order: the greedy walk depends on it
		want, ok := reference[key]
		if !ok {
			want = referencePrune(in)
			reference[key] = want
		}
		if !slices.EqualFunc(kept, want, func(a, b lin.Ineq) bool { return a.Expr.Equal(b.Expr) }) {
			t.Errorf("%s: pruning %v\nkept      %v\nreference %v", where, in, kept, want)
		}
	})
	defer fm.ObservePrune(nil)
	before := simplex.ReadStats()

	for _, name := range problems.Names() {
		p, err := problems.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		where = "builtin " + name
		if err := analyze(p.Spec); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}
	files, err := filepath.Glob("../../specs/*.dps")
	if err != nil || len(files) == 0 {
		t.Fatalf("no spec files: %v", err)
	}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spec.Parse(string(text))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		where = f
		if err := analyze(sp); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}
	seeds := uint64(200)
	if testing.Short() {
		seeds = 40
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		in := dpfuzz.Generate(seed)
		where = "dpfuzz seed " + in.Spec.Name
		// A generated spec may be one the analysis rejects; what it pruned
		// on the way was still compared.
		_ = analyze(in.Spec)
	}

	after := simplex.ReadStats()
	t.Logf("%d systems pruned (%d distinct), %d inequalities dropped, %d solves, %d pivots", pruned, len(reference), dropped, after.Solves-before.Solves, after.Pivots-before.Pivots)
	if pruned == 0 || dropped == 0 {
		t.Error("the sweep never reached the pruner")
	}
	if n := after.BigFallbacks - before.BigFallbacks; n != 0 {
		t.Errorf("%d simplex questions fell back to big.Rat; the small rationals are sized for none", n)
	}
}
