// Package loopgen synthesizes perfectly nested loop bounds from a system
// of linear inequalities and a loop ordering, the way Section IV-D of the
// paper does with Fourier–Motzkin elimination: the bounds of each loop
// variable are max/min combinations of affine expressions in the
// parameters and the enclosing loop variables, with ceiling and floor
// divisions where coefficients exceed one.
//
// A Nest supports evaluating bounds, enumerating all integer points, and
// counting points with a closed-form innermost level (the basis of the
// Ehrhart machinery in dpgen/internal/ehrhart).
package loopgen

import (
	"fmt"
	"strings"

	"dpgen/internal/fm"
	"dpgen/internal/ints"
	"dpgen/internal/lin"
)

// Bound is one affine bound Num/Div on a loop variable: a lower bound
// contributes ceil(Num/Div), an upper bound floor(Num/Div). Num involves
// only parameters and variables of enclosing loops; Div > 0.
type Bound struct {
	Num lin.Expr
	Div int64
}

// EvalLower returns ceil(Num/Div) at the given full-space values.
func (b Bound) EvalLower(vals []int64) int64 { return ints.CeilDiv(b.Num.Eval(vals), b.Div) }

// EvalUpper returns floor(Num/Div) at the given full-space values.
func (b Bound) EvalUpper(vals []int64) int64 { return ints.FloorDiv(b.Num.Eval(vals), b.Div) }

func (b Bound) String() string {
	if b.Div == 1 {
		return b.Num.String()
	}
	return fmt.Sprintf("(%s)/%d", b.Num, b.Div)
}

// Level holds the synthesized bounds of one loop variable.
type Level struct {
	Var   string
	Idx   int // index of Var in the space
	Lower []Bound
	Upper []Bound
}

// Nest is a synthesized loop nest over the variables of a space, ordered
// outermost first. Residual is the parameter-only system that remains
// after eliminating every loop variable: when it is violated the nest is
// empty for those parameter values.
type Nest struct {
	space    *lin.Space
	Order    []string
	Levels   []Level
	Residual *lin.System
}

// Space returns the space the nest scans.
func (n *Nest) Space() *lin.Space { return n.space }

// Build synthesizes a nest scanning the integer points of sys with the
// given loop order (outermost first). Every variable of the space must
// appear exactly once in order, and every variable must be bounded above
// and below given the parameters; otherwise an error is returned.
// ErrInfeasible from elimination propagates when the system is empty for
// all parameter values.
func Build(sys *lin.System, order []string, opts fm.Options) (*Nest, error) {
	sp := sys.Space()
	if len(order) != sp.NumVars() {
		return nil, fmt.Errorf("loopgen: order has %d names, space has %d vars", len(order), sp.NumVars())
	}
	seen := map[string]bool{}
	for _, v := range order {
		i := sp.Index(v)
		if i < 0 || sp.IsParam(i) {
			return nil, fmt.Errorf("loopgen: order name %q is not a variable of %v", v, sp)
		}
		if seen[v] {
			return nil, fmt.Errorf("loopgen: duplicate order name %q", v)
		}
		seen[v] = true
	}

	n := &Nest{space: sp, Order: append([]string(nil), order...), Levels: make([]Level, len(order))}
	cur, err := fm.Simplify(sys, opts)
	if err != nil {
		return nil, err
	}
	for k := len(order) - 1; k >= 0; k-- {
		v := order[k]
		idx := sp.Index(v)
		lvl := Level{Var: v, Idx: idx}
		for _, q := range cur.Ineqs {
			c := q.CoeffAt(idx)
			switch {
			case c > 0:
				// c*v + rest >= 0  ->  v >= ceil(-rest / c)
				num := q.Expr.Clone()
				num.Coef[idx] = 0
				lvl.Lower = append(lvl.Lower, Bound{Num: num.Neg(), Div: c})
			case c < 0:
				// -|c|*v + rest >= 0  ->  v <= floor(rest / |c|)
				num := q.Expr.Clone()
				num.Coef[idx] = 0
				lvl.Upper = append(lvl.Upper, Bound{Num: num, Div: -c})
			}
		}
		if len(lvl.Lower) == 0 || len(lvl.Upper) == 0 {
			return nil, fmt.Errorf("loopgen: variable %q is unbounded %s", v, boundSide(len(lvl.Lower) == 0))
		}
		n.Levels[k] = lvl
		if cur, err = fm.Eliminate(cur, v, opts); err != nil {
			return nil, err
		}
	}
	n.Residual = cur
	return n, nil
}

func boundSide(lower bool) string {
	if lower {
		return "below"
	}
	return "above"
}

// Bounds evaluates the [lo, hi] range of level k given vals, a full-space
// value vector in which the parameters and the variables of enclosing
// levels are set. The range is empty when hi < lo.
func (n *Nest) Bounds(k int, vals []int64) (lo, hi int64) {
	lvl := &n.Levels[k]
	lo = lvl.Lower[0].EvalLower(vals)
	for _, b := range lvl.Lower[1:] {
		lo = ints.Max(lo, b.EvalLower(vals))
	}
	hi = lvl.Upper[0].EvalUpper(vals)
	for _, b := range lvl.Upper[1:] {
		hi = ints.Min(hi, b.EvalUpper(vals))
	}
	return lo, hi
}

// ParamsOK reports whether the residual (parameter-only) constraints hold
// for vals.
func (n *Nest) ParamsOK(vals []int64) bool { return n.Residual.Contains(vals) }

// Enumerate visits every integer point of the nest for the given
// parameter values, in loop order (every level ascending).
// The callback receives the full-space value vector, which it must not
// retain or modify; returning false stops the enumeration early.
func (n *Nest) Enumerate(params []int64, visit func(vals []int64) bool) {
	n.EnumerateDir(params, nil, visit)
}

// EnumerateDir is Enumerate with a per-level direction: dirs[k] = -1
// makes level k iterate from its upper bound down to its lower bound
// (the paper's Figure 3 order for positive template vectors); +1 (or a
// nil dirs) ascends.
func (n *Nest) EnumerateDir(params []int64, dirs []int, visit func(vals []int64) bool) {
	if dirs != nil && len(dirs) != len(n.Levels) {
		panic(fmt.Sprintf("loopgen: %d dirs for %d levels", len(dirs), len(n.Levels)))
	}
	vals := n.valsFromParams(params)
	if !n.ParamsOK(vals) {
		return
	}
	n.enum(0, vals, dirs, visit)
}

// EnumerateRows visits every non-empty row of the nest — a point of its
// outer levels — in loop order (every level ascending), with the
// innermost level's range lo..hi. vals holds the parameters and the
// outer levels' values; the callback must not retain or modify it.
func (n *Nest) EnumerateRows(params []int64, visit func(vals []int64, lo, hi int64) bool) {
	vals := n.valsFromParams(params)
	if len(n.Levels) == 0 || !n.ParamsOK(vals) {
		return
	}
	n.rows(0, vals, visit)
}

func (n *Nest) rows(k int, vals []int64, visit func([]int64, int64, int64) bool) bool {
	lo, hi := n.Bounds(k, vals)
	if k == len(n.Levels)-1 {
		return hi < lo || visit(vals, lo, hi)
	}
	idx := n.Levels[k].Idx
	for v := lo; v <= hi; v++ {
		vals[idx] = v
		if !n.rows(k+1, vals, visit) {
			return false
		}
	}
	vals[idx] = 0
	return true
}

func (n *Nest) enum(k int, vals []int64, dirs []int, visit func([]int64) bool) bool {
	if k == len(n.Levels) {
		return visit(vals)
	}
	lo, hi := n.Bounds(k, vals)
	idx := n.Levels[k].Idx
	if dirs != nil && dirs[k] < 0 {
		for v := hi; v >= lo; v-- {
			vals[idx] = v
			if !n.enum(k+1, vals, dirs, visit) {
				return false
			}
		}
	} else {
		for v := lo; v <= hi; v++ {
			vals[idx] = v
			if !n.enum(k+1, vals, dirs, visit) {
				return false
			}
		}
	}
	vals[idx] = 0
	return true
}

// Count returns the number of integer points for the given parameter
// values, using a closed-form innermost level (cost proportional to the
// number of points divided by the innermost extent). A nest with no loop
// variables counts one point when the residual constraints hold.
func (n *Nest) Count(params []int64) int64 {
	vals := n.valsFromParams(params)
	if !n.ParamsOK(vals) {
		return 0
	}
	if len(n.Levels) == 0 {
		return 1
	}
	return n.countFrom(0, vals)
}

// CountWithPrefix counts points with the first fixed levels pinned to the
// given values (fixed[i] is the value of Order[i]). Parameters come from
// params. Used for per-slab work counting in load balancing.
func (n *Nest) CountWithPrefix(params []int64, fixed []int64) int64 {
	vals := n.valsFromParams(params)
	if !n.ParamsOK(vals) {
		return 0
	}
	for i, v := range fixed {
		lo, hi := n.Bounds(i, vals)
		if v < lo || v > hi {
			return 0
		}
		vals[n.Levels[i].Idx] = v
	}
	return n.countFrom(len(fixed), vals)
}

func (n *Nest) countFrom(k int, vals []int64) int64 {
	lo, hi := n.Bounds(k, vals)
	if hi < lo {
		return 0
	}
	if k == len(n.Levels)-1 {
		return hi - lo + 1
	}
	idx := n.Levels[k].Idx
	var total int64
	for v := lo; v <= hi; v++ {
		vals[idx] = v
		total += n.countFrom(k+1, vals)
	}
	vals[idx] = 0
	return total
}

func (n *Nest) valsFromParams(params []int64) []int64 {
	if len(params) != n.space.NumParams() {
		panic(fmt.Sprintf("loopgen: got %d params for space %v", len(params), n.space))
	}
	vals := make([]int64, n.space.N())
	copy(vals, params)
	return vals
}

// Divisors returns the set of all divisors appearing in the nest's
// bounds; their lcm is a period candidate for Ehrhart interpolation.
func (n *Nest) Divisors() []int64 {
	set := map[int64]bool{}
	for _, lvl := range n.Levels {
		for _, b := range append(append([]Bound{}, lvl.Lower...), lvl.Upper...) {
			set[b.Div] = true
		}
	}
	out := make([]int64, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	return out
}

// String renders the nest in the style of Figure 3 of the paper.
func (n *Nest) String() string {
	var b strings.Builder
	indent := ""
	for _, lvl := range n.Levels {
		var lows, ups []string
		for _, bd := range lvl.Lower {
			lows = append(lows, bd.String())
		}
		for _, bd := range lvl.Upper {
			ups = append(ups, bd.String())
		}
		fmt.Fprintf(&b, "%sfor %s from max(%s) to min(%s)\n",
			indent, lvl.Var, strings.Join(lows, ", "), strings.Join(ups, ", "))
		indent += "  "
	}
	fmt.Fprintf(&b, "%s{body}", indent)
	return b.String()
}
