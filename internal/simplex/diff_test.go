package simplex

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"dpgen/internal/lin"
)

// Differential tests: every public answer is computed twice, on the
// small-rational dictionary (with its fallback) and on the big.Rat
// tableau alone, over seeded random systems, and the two must agree.

// Coefficient regimes of randSystem.
const (
	regimeUnit  = iota // ±1 and 0: iteration-space constraints
	regimeWidth        // the same after x = i + w*t: every other variable scaled by a tile width
	regimeHuge         // >= 2^31: products leave int64, forcing the fallback
	numRegimes
)

// randSystem draws a system over n variables with about m rows. shape
// selects how the constants are chosen: 0 makes every row hold at one
// random point (feasible, often with rows tight there: degenerate), 1
// draws them blind (often infeasible), 2 is shape 0 inside a box
// (bounded). A few rows are repeated verbatim or scaled.
func randSystem(rng *rand.Rand, n, m, regime, shape int) *lin.System {
	names := make([]string, n)
	for j := range names {
		names[j] = fmt.Sprintf("x%d", j)
	}
	s := lin.MustSpace(names[:n/3], names[n/3:])
	sys := lin.NewSystem(s)
	at := make([]int64, n)
	for j := range at {
		at[j] = int64(rng.Intn(21) - 10)
	}
	// scale[j] multiplies a unit coefficient on variable j.
	scale := make([]int64, n)
	for j := range scale {
		scale[j] = 1
		if regime == regimeWidth && j%2 == 1 {
			scale[j] = int64(2 + rng.Intn(63))
		}
	}
	add := func(coef []int64) {
		var dot int64
		for j, c := range coef {
			dot += c * at[j]
		}
		e := lin.Zero(s)
		copy(e.Coef, coef)
		switch {
		case shape == 1:
			e.K = int64(rng.Intn(41) - 20)
		case rng.Intn(3) == 0:
			e.K = -dot // tight at the point
		default:
			e.K = -dot + int64(rng.Intn(30))
		}
		sys.Ineqs = append(sys.Ineqs, lin.Ineq{Expr: e})
	}
	if shape == 2 {
		for j := 0; j < n; j++ {
			lo, hi := make([]int64, n), make([]int64, n)
			lo[j], hi[j] = 1, -1
			add(lo)
			add(hi)
		}
	}
	for len(sys.Ineqs) < m {
		coef := make([]int64, n)
		for j := range coef {
			switch rng.Intn(3) {
			case 0:
				coef[j] = scale[j]
			case 1:
				coef[j] = -scale[j]
			}
			if regime == regimeHuge {
				coef[j] *= 1<<31 + rng.Int63n(1<<33)
			}
		}
		add(coef)
	}
	for k := rng.Intn(3); k > 0; k-- {
		q := sys.Ineqs[rng.Intn(len(sys.Ineqs))]
		if rng.Intn(2) == 0 && regime != regimeHuge {
			q = lin.Ineq{Expr: q.Expr.Scale(int64(2 + rng.Intn(3)))}
		}
		sys.Ineqs = append(sys.Ineqs, q)
	}
	return sys
}

// referencePrune is the pruner this package replaced: feasibility, then
// one fresh big.Rat two-phase solve per inequality of the shrinking
// system.
func referencePrune(sys *lin.System) []lin.Ineq {
	if !FeasibleBig(sys) {
		return sys.Ineqs
	}
	cur := lin.NewSystem(sys.Space())
	cur.Ineqs = slices.Clone(sys.Ineqs)
	for i := 0; i < len(cur.Ineqs); {
		if RedundantBig(cur, i) {
			cur.Ineqs = slices.Delete(cur.Ineqs, i, i+1)
			continue
		}
		i++
	}
	return cur.Ineqs
}

func evalAt(e lin.Expr, pt []*big.Rat) *big.Rat {
	acc := rat(e.K, 1)
	for j, c := range e.Coef {
		acc.Add(acc, new(big.Rat).Mul(rat(c, 1), pt[j]))
	}
	return acc
}

func sameSolution(a, b Solution) bool {
	if a.Status != b.Status {
		return false
	}
	return a.Status != Optimal || a.Value.Cmp(b.Value) == 0
}

// checkSystem compares every answer about sys; it returns a description
// of the first disagreement, or "". seen tallies the Minimize statuses.
func checkSystem(sys *lin.System, rng *rand.Rand, seen map[Status]int) string {
	s := sys.Space()
	if got, want := Feasible(sys), FeasibleBig(sys); got != want {
		return fmt.Sprintf("Feasible = %v, big.Rat says %v", got, want)
	}
	for i := range sys.Ineqs {
		if got, want := Redundant(sys, i), RedundantBig(sys, i); got != want {
			return fmt.Sprintf("Redundant(%d) = %v, big.Rat says %v", i, got, want)
		}
	}
	objs := []lin.Expr{lin.Zero(s), sys.Ineqs[0].Expr}
	for k := 0; k < 3; k++ {
		e := lin.Const(s, int64(rng.Intn(9)-4))
		for j := range e.Coef {
			e.Coef[j] = int64(rng.Intn(7) - 3)
		}
		objs = append(objs, e)
	}
	for _, obj := range objs {
		got, want := Minimize(sys, obj), MinimizeBig(sys, obj)
		if !sameSolution(got, want) {
			return fmt.Sprintf("Minimize(%v) = %v %v, big.Rat says %v %v", obj, got.Status, got.Value, want.Status, want.Value)
		}
		seen[got.Status]++
		if got.Status != Optimal {
			continue
		}
		// The optimal point need not be the oracle's, but it must be in the
		// system and attain the value.
		if v := evalAt(obj, got.Point); v.Cmp(got.Value) != 0 {
			return fmt.Sprintf("Minimize(%v): point %v gives %v, value is %v", obj, got.Point, v, got.Value)
		}
		for _, q := range sys.Ineqs {
			if evalAt(q.Expr, got.Point).Sign() < 0 {
				return fmt.Sprintf("Minimize(%v): point %v violates %v", obj, got.Point, q)
			}
		}
	}
	got, want := Prune(sys), referencePrune(sys)
	if !slices.EqualFunc(got, want, func(a, b lin.Ineq) bool { return a.Expr.Equal(b.Expr) }) {
		return fmt.Sprintf("Prune kept %v, reference kept %v", got, want)
	}
	return ""
}

func TestDifferentialRandomSystems(t *testing.T) {
	count := 120
	if testing.Short() {
		count = 45
	}
	rng := rand.New(rand.NewSource(20110926))
	seen := map[Status]int{}
	infeasible, pruned := 0, 0
	for it := 0; it < count; it++ {
		// Most systems are small: the oracle costs seconds at 40 rows.
		n, m := 1+rng.Intn(8), 2+rng.Intn(12)
		regime, shape := it%numRegimes, rng.Intn(3)
		if it%40 == 7 {
			m = 25 + rng.Intn(16)
		} else if regime == regimeHuge {
			m = 2 + rng.Intn(7)
		}
		sys := randSystem(rng, n, m, regime, shape)
		before := ReadStats()
		if msg := checkSystem(sys, rng, seen); msg != "" {
			t.Fatalf("system %d (n=%d m=%d regime=%d shape=%d)\n%v\n%s", it, n, m, regime, shape, sys, msg)
		}
		after := ReadStats()
		if regime != regimeHuge && after.BigFallbacks != before.BigFallbacks {
			t.Errorf("system %d (regime %d) fell back to big.Rat %d times\n%v", it, regime, after.BigFallbacks-before.BigFallbacks, sys)
		}
		if !FeasibleBig(sys) {
			infeasible++
		} else if len(referencePrune(sys)) < len(sys.Ineqs) {
			pruned++
		}
	}
	// The generator must reach every kind of answer, or the comparison
	// above proves less than it looks.
	if seen[Optimal] == 0 || seen[Unbounded] == 0 || seen[Infeasible] == 0 || infeasible == 0 || pruned == 0 {
		t.Errorf("coverage: statuses %v, infeasible %d, pruned %d", seen, infeasible, pruned)
	}
}

// TestHugeCoefficientsFallBack pins the fallback itself: a system whose
// pivots cannot stay inside int64 is answered, correctly, by big.Rat,
// and the counters say so.
func TestHugeCoefficientsFallBack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	before := ReadStats()
	for it := 0; it < 8; it++ {
		sys := randSystem(rng, 4, 8, regimeHuge, 0)
		if msg := checkSystem(sys, rng, map[Status]int{}); msg != "" {
			t.Fatalf("%v\n%s", sys, msg)
		}
	}
	after := ReadStats()
	if after.BigFallbacks == before.BigFallbacks {
		t.Error("coefficients >= 2^31 never took the big.Rat fallback")
	}
	if after.Solves == before.Solves || after.Pivots == before.Pivots {
		t.Errorf("counters did not move: %+v -> %+v", before, after)
	}
}

func FuzzRedundant(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed, uint8(seed%8), uint8(2*seed), uint8(seed%numRegimes), uint8(seed%3))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, m, regime, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		nv, rows, reg := 1+int(n%8), 2+int(m%24), int(regime%numRegimes)
		if reg == regimeHuge {
			// The oracle's numbers grow with every pivot here; keep it to
			// well under the fuzzer's per-input deadline.
			nv, rows = 1+int(n%4), 2+int(m%7)
		}
		sys := randSystem(rng, nv, rows, reg, int(shape%3))
		if msg := checkSystem(sys, rng, map[Status]int{}); msg != "" {
			t.Fatalf("%v\n%s", sys, msg)
		}
	})
}
