// Package simplex is the exact LP solver under the polyhedral layer. It
// answers the questions Fourier–Motzkin elimination needs —
//
//   - is a system of linear inequalities feasible over the rationals,
//   - what is the minimum of an affine objective over the system, and
//   - which inequalities of a system are implied by the others (Prune) —
//
// with exact rational arithmetic, so an inequality e >= 0 is reported
// redundant iff min e >= 0 over the rest, never "up to rounding".
// Variables are free (unrestricted in sign), matching the
// iteration-space setting where lower bounds are ordinary inequalities
// rather than implicit nonnegativity.
//
// There are two implementations of the arithmetic and of the method.
//
// The production path (small.go) is a simplex dictionary over small
// rationals: int64 numerator and denominator, gcd-normalised, every
// multiply and add overflow-checked (internal/ints). The systems this
// generator builds have coefficients of ±1 and tile widths, and their
// pivots stay far inside int64. The free variables are pivoted into
// rows once and dropped from consideration, so the table is one row
// per inequality by one column per variable — no x = u - v split, no
// artificial variables. Prune decides a whole system on one such table:
// feasibility once, then each inequality's slack is minimized from the
// current feasible vertex with that row's own sign constraint relaxed,
// stopping as soon as the slack can go negative; every pivot keeps the
// whole system feasible, and a redundant row leaves the table for
// good, so the greedy walk sees the same shrinking system a sequence of
// fresh solves would. Redundancy is the sign of an LP optimum, which
// does not depend on pivot order: the kept inequalities are identical
// to what any exact method keeps.
//
// The reference path (this file) is a dense two-phase primal tableau
// over math/big.Rat, one fresh solve per question. When any
// small-rational operation overflows, that question is abandoned and
// answered here instead (within a Prune, so are the questions after
// it); the *Big functions expose it directly as the oracle the
// differential tests and FuzzRedundant compare against. ReadStats
// counts questions, pivots and fallbacks process-wide; dpserve exports
// them on /metrics. Both paths use Bland's anti-cycling rule.
package simplex

import (
	"fmt"
	"math/big"
	"slices"
	"sync/atomic"

	"dpgen/internal/lin"
)

// Status classifies the outcome of an optimization.
type Status int

const (
	// Optimal means a finite optimum was found.
	Optimal Status = iota
	// Unbounded means the objective decreases without bound.
	Unbounded
	// Infeasible means the constraint system has no rational solution.
	Infeasible
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Unbounded:
		return "unbounded"
	case Infeasible:
		return "infeasible"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of Minimize.
type Solution struct {
	Status Status
	// Value is the optimal objective value when Status == Optimal.
	Value *big.Rat
	// Point is an optimal assignment, indexed like the system's space.
	Point []*big.Rat
}

// Minimize computes min obj over the rational relaxation of sys. All
// names in the space (parameters included) are treated as free rational
// variables.
func Minimize(sys *lin.System, obj lin.Expr) Solution {
	if !obj.Space().Equal(sys.Space()) {
		panic("simplex: objective space mismatch")
	}
	t := newTab(sys.Space().N(), sys.Ineqs, &obj)
	sol := Solution{Status: Infeasible}
	if t.feasible() {
		sol.Status = Unbounded
		if r := slices.Index(t.rowVar, objVar); t.minimize(r, false) {
			sol = Solution{Status: Optimal, Value: t.rows[r][t.nc].big(), Point: make([]*big.Rat, t.nx)}
			for j := range sol.Point {
				sol.Point[j] = t.value(j).big()
			}
		}
	}
	if t.done() {
		return sol
	}
	return MinimizeBig(sys, obj)
}

// MinimizeBig is Minimize on the big.Rat tableau alone: what Minimize
// falls back to, and the oracle the tests compare it with.
func MinimizeBig(sys *lin.System, obj lin.Expr) Solution {
	t := newTableau(sys)
	if !t.phaseOne() {
		return Solution{Status: Infeasible}
	}
	st := t.phaseTwo(obj)
	if st == Unbounded {
		return Solution{Status: Unbounded}
	}
	v := t.objValue()
	v.Add(v, big.NewRat(obj.K, 1))
	return Solution{Status: Optimal, Value: v, Point: t.point()}
}

// Maximize computes max obj over sys. Status Unbounded means the
// objective increases without bound.
func Maximize(sys *lin.System, obj lin.Expr) Solution {
	sol := Minimize(sys, obj.Neg())
	if sol.Status == Optimal {
		sol.Value.Neg(sol.Value)
		// obj.Neg() negated K too; Minimize already added it back, so the
		// sign flip above restores max obj = -(min -obj).
	}
	return sol
}

// Feasible reports whether sys has a rational solution.
func Feasible(sys *lin.System) bool {
	t := newTab(sys.Space().N(), sys.Ineqs, nil)
	if ok := t.feasible(); t.done() {
		return ok
	}
	return FeasibleBig(sys)
}

// FeasibleBig is Feasible on the big.Rat tableau alone.
func FeasibleBig(sys *lin.System) bool {
	return newTableau(sys).phaseOne()
}

// Redundant reports whether inequality index idx of sys is implied by the
// other inequalities over the rationals. An inequality is also considered
// redundant when the remaining system is infeasible.
func Redundant(sys *lin.System, idx int) bool {
	return redundant(sys, idx, Minimize)
}

// RedundantBig is Redundant on the big.Rat tableau alone: one fresh
// two-phase solve per question.
func RedundantBig(sys *lin.System, idx int) bool {
	return redundant(sys, idx, MinimizeBig)
}

func redundant(sys *lin.System, idx int, minimize func(*lin.System, lin.Expr) Solution) bool {
	rest := lin.NewSystem(sys.Space())
	rest.Ineqs = slices.Delete(slices.Clone(sys.Ineqs), idx, idx+1)
	sol := minimize(rest, sys.Ineqs[idx].Expr)
	switch sol.Status {
	case Infeasible:
		return true
	case Unbounded:
		return false
	default:
		return sol.Value.Sign() >= 0
	}
}

// Prune returns the inequalities of sys that survive greedy redundancy
// removal: walking the list in order, an inequality implied by the
// others that remain is dropped. Redundancy is the sign of an LP
// optimum, so the result does not depend on how the LPs are solved.
//
// An infeasible system is returned whole: each of its inequalities is
// vacuously implied by the rest, so the walk would strip constraints
// until the leftovers were feasible — and meaningless.
//
// The whole walk runs on one small-rational dictionary: feasibility
// once, then each inequality's slack is minimized from the current
// vertex with its own row relaxed, and a redundant row leaves the
// table. If the arithmetic overflows, the question at hand and those
// after it are each answered by a fresh big.Rat solve.
func Prune(sys *lin.System) []lin.Ineq {
	t := newTab(sys.Space().N(), sys.Ineqs, nil)
	feasible := t.feasible()
	if !t.done() {
		feasible = FeasibleBig(sys)
	}
	if !feasible {
		return sys.Ineqs
	}
	cur := lin.NewSystem(sys.Space())
	cur.Ineqs = slices.Clone(sys.Ineqs)
	// ids[i] is cur.Ineqs[i]'s index in sys, which names its slack.
	ids := make([]int, len(cur.Ineqs))
	for i := range ids {
		ids[i] = i
	}
	for i := 0; i < len(ids); {
		var red bool
		if !t.ovf {
			red = t.redundant(ids[i])
		}
		if !t.done() {
			red = RedundantBig(cur, i)
		}
		if red {
			cur.Ineqs = slices.Delete(cur.Ineqs, i, i+1)
			ids = slices.Delete(ids, i, i+1)
		} else {
			i++
		}
	}
	return cur.Ineqs
}

// Stats counts the LP questions this process has asked: Solves the
// feasibility, optimization and redundancy questions put to the
// small-rational dictionary, Pivots its pivots, and BigFallbacks the
// questions whose arithmetic left int64 and were answered again on the
// big.Rat tableau.
type Stats struct {
	Solves, Pivots, BigFallbacks uint64
}

var solves, pivots, bigFallbacks atomic.Uint64

// ReadStats returns the process-wide counters.
func ReadStats() Stats {
	return Stats{Solves: solves.Load(), Pivots: pivots.Load(), BigFallbacks: bigFallbacks.Load()}
}

// done closes one question put to the dictionary: it books the
// question and the pivots since the last one, and reports whether the
// answer stands (false: the arithmetic overflowed, ask the big.Rat
// tableau).
func (t *tab) done() bool {
	solves.Add(1)
	pivots.Add(t.pivots)
	t.pivots = 0
	if t.ovf {
		bigFallbacks.Add(1)
	}
	return !t.ovf
}

// tableau is a dense simplex tableau in standard form:
//
//	min c.y   s.t.  A y = b,  y >= 0
//
// built from the free-variable system via y = (u, v, s, art):
// x = u - v, one slack s per inequality, one artificial per row.
// Column layout: [0,n) u, [n,2n) v, [2n,2n+m) slacks, [2n+m,2n+2m) artificials.
// a has m rows of width ncols+1 (last column is the RHS).
type tableau struct {
	nx    int // original free variables
	m     int // rows
	ncols int // structural + artificial columns
	art0  int // first artificial column
	a     [][]*big.Rat
	cost  []*big.Rat // ncols+1; last entry is -z
	basis []int
}

func newTableau(sys *lin.System) *tableau {
	nx := sys.Space().N()
	m := len(sys.Ineqs)
	t := &tableau{
		nx:    nx,
		m:     m,
		ncols: 2*nx + 2*m,
		art0:  2*nx + m,
	}
	t.a = make([][]*big.Rat, m)
	for i, q := range sys.Ineqs {
		row := make([]*big.Rat, t.ncols+1)
		for j := range row {
			row[j] = new(big.Rat)
		}
		// q: a.x + K >= 0  ->  a.x - s = -K  ->  a.u - a.v - s = -K
		for j := 0; j < nx; j++ {
			c := q.CoeffAt(j)
			if c != 0 {
				row[j].SetInt64(c)
				row[nx+j].SetInt64(-c)
			}
		}
		row[2*nx+i].SetInt64(-1) // slack
		row[t.ncols].SetInt64(-q.K)
		// Make RHS nonnegative so the artificial basis is feasible.
		if row[t.ncols].Sign() < 0 {
			for j := range row {
				row[j].Neg(row[j])
			}
		}
		row[t.art0+i].SetInt64(1) // artificial
		t.a[i] = row
	}
	t.basis = make([]int, m)
	for i := range t.basis {
		t.basis[i] = t.art0 + i
	}
	return t
}

// phaseOne minimizes the sum of artificials; reports feasibility.
func (t *tableau) phaseOne() bool {
	t.cost = make([]*big.Rat, t.ncols+1)
	for j := range t.cost {
		t.cost[j] = new(big.Rat)
	}
	for j := t.art0; j < t.ncols; j++ {
		t.cost[j].SetInt64(1)
	}
	// Price out the artificial basis.
	for i := range t.a {
		t.subtractRow(t.cost, t.a[i], big.NewRat(1, 1))
	}
	if st := t.iterate(); st != Optimal {
		// Phase-one objective is bounded below by 0; Unbounded is impossible.
		panic("simplex: phase one " + st.String())
	}
	if t.objValue().Sign() != 0 {
		return false
	}
	t.expelArtificials()
	return true
}

// expelArtificials pivots degenerate basic artificials out of the basis,
// dropping rows that are redundant (all-zero on structural columns).
func (t *tableau) expelArtificials() {
	keep := t.a[:0]
	keptBasis := t.basis[:0]
	for i := 0; i < len(t.a); i++ {
		if t.basis[i] < t.art0 {
			keep = append(keep, t.a[i])
			keptBasis = append(keptBasis, t.basis[i])
			continue
		}
		// Basic artificial at value zero: pivot on any structural column.
		pivoted := false
		for j := 0; j < t.art0; j++ {
			if t.a[i][j].Sign() != 0 {
				t.pivot(i, j)
				keep = append(keep, t.a[i])
				keptBasis = append(keptBasis, t.basis[i])
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Structurally zero row: redundant constraint, drop it.
			continue
		}
	}
	t.a = keep
	t.basis = keptBasis
	t.m = len(t.a)
	// Zero out artificial columns so they can never re-enter.
	for i := range t.a {
		for j := t.art0; j < t.ncols; j++ {
			t.a[i][j].SetInt64(0)
		}
	}
}

// phaseTwo installs the true objective (min obj over x = u - v) and iterates.
func (t *tableau) phaseTwo(obj lin.Expr) Status {
	for j := range t.cost {
		t.cost[j].SetInt64(0)
	}
	for j := 0; j < t.nx; j++ {
		c := obj.CoeffAt(j)
		if c != 0 {
			t.cost[j].SetInt64(c)
			t.cost[t.nx+j].SetInt64(-c)
		}
	}
	// Keep artificials priced prohibitively: they are zeroed in the rows,
	// so a zero cost suffices; they can never enter (column is zero).
	// Price out current basis.
	for i, b := range t.basis {
		if t.cost[b].Sign() != 0 {
			t.subtractRow(t.cost, t.a[i], new(big.Rat).Set(t.cost[b]))
		}
	}
	return t.iterate()
}

// iterate runs Bland-rule pivots to optimality or unboundedness.
func (t *tableau) iterate() Status {
	for {
		enter := -1
		for j := 0; j < t.art0; j++ {
			if t.cost[j].Sign() < 0 {
				enter = j
				break
			}
		}
		if enter == -1 {
			// Also allow artificial columns in phase one.
			for j := t.art0; j < t.ncols; j++ {
				if t.cost[j].Sign() < 0 {
					enter = j
					break
				}
			}
		}
		if enter == -1 {
			return Optimal
		}
		leave := -1
		var best big.Rat
		for i := 0; i < t.m; i++ {
			if t.a[i][enter].Sign() <= 0 {
				continue
			}
			ratio := new(big.Rat).Quo(t.a[i][t.ncols], t.a[i][enter])
			if leave == -1 || ratio.Cmp(&best) < 0 ||
				(ratio.Cmp(&best) == 0 && t.basis[i] < t.basis[leave]) {
				leave = i
				best.Set(ratio)
			}
		}
		if leave == -1 {
			return Unbounded
		}
		t.pivot(leave, enter)
	}
}

// pivot makes column c basic in row r.
func (t *tableau) pivot(r, c int) {
	pr := t.a[r]
	inv := new(big.Rat).Inv(pr[c])
	for j := range pr {
		pr[j].Mul(pr[j], inv)
	}
	for i := 0; i < t.m; i++ {
		if i == r || t.a[i][c].Sign() == 0 {
			continue
		}
		t.subtractRow(t.a[i], pr, new(big.Rat).Set(t.a[i][c]))
	}
	if t.cost[c].Sign() != 0 {
		t.subtractRow(t.cost, pr, new(big.Rat).Set(t.cost[c]))
	}
	t.basis[r] = c
}

// subtractRow computes dst -= f * src elementwise.
func (t *tableau) subtractRow(dst, src []*big.Rat, f *big.Rat) {
	tmp := new(big.Rat)
	for j := range dst {
		if src[j].Sign() == 0 {
			continue
		}
		tmp.Mul(src[j], f)
		dst[j].Sub(dst[j], tmp)
	}
}

// objValue returns the current objective value (-cost[rhs]).
func (t *tableau) objValue() *big.Rat {
	return new(big.Rat).Neg(t.cost[t.ncols])
}

// point reconstructs x = u - v from the basic solution.
func (t *tableau) point() []*big.Rat {
	y := make([]*big.Rat, t.ncols)
	for j := range y {
		y[j] = new(big.Rat)
	}
	for i, b := range t.basis {
		y[b].Set(t.a[i][t.ncols])
	}
	x := make([]*big.Rat, t.nx)
	for j := 0; j < t.nx; j++ {
		x[j] = new(big.Rat).Sub(y[j], y[t.nx+j])
	}
	return x
}
