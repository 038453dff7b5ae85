package tiling

import (
	"fmt"
	"slices"

	"dpgen/internal/fm"
	"dpgen/internal/ints"
	"dpgen/internal/lin"
	"dpgen/internal/spec"
)

// This file holds the analyses for the extended dependence templates:
// variable-distance offsets (parameter-affine components with declared
// parameter bounds) and range templates (a cell depends on an interval
// of predecessors, the nonserial polyadic DP case). The geometry —
// ghost shells, tile-to-tile crossings, pack slabs — is sized from the
// footprint hull over all admissible parameter values, while the
// per-run memory offsets and per-cell range lengths are evaluated from
// the expressions built here.

// RangeCheck is one iteration-space constraint restricted to a range
// template's footprint ray: at footprint step t the constraint's value
// is Base + t*Step (Step is parameter-only, so it is constant within a
// run). The usable range length is the longest prefix of steps with
// nonnegative value, exactly matching a serial reference loop that
// walks the interval and stops at the first cell outside the space.
type RangeCheck struct {
	Base lin.Ineq
	Step lin.Expr
}

const lenVarName = "z$len"

// maxTileDeps caps the tile-to-tile crossing enumeration; beyond this
// the spec's reach/width ratio is unreasonable and the cross product
// explodes.
const maxTileDeps = 512

// depLenMaxima bounds each range dependence's length form from above
// over the iteration space and the declared parameter bounds, by
// Fourier–Motzkin maximization. Point dependences get 1.
func (tl *Tiling) depLenMaxima() ([]int64, error) {
	sp := tl.Spec
	out := make([]int64, len(sp.Deps))
	for j := range sp.Deps {
		if !sp.Deps[j].IsRange() {
			out[j] = 1
			continue
		}
		le := sp.LenExpr(j)
		if le.IsConst() {
			out[j] = ints.Max(0, le.K)
			continue
		}
		m, err := tl.maxOverSpace(le)
		if err != nil {
			return nil, fmt.Errorf("tiling: dependence %q count: %w", sp.Deps[j].Name, err)
		}
		out[j] = m
	}
	return out, nil
}

// maxOverSpace returns max(0, maximum of e) over the iteration space
// intersected with the parameter bounds, treating parameters as
// variables. It errors when the maximum is unbounded — the user must
// declare tighter parameter bounds.
func (tl *Tiling) maxOverSpace(e lin.Expr) (int64, error) {
	sp := tl.Spec
	names := append(append([]string{}, sp.Params...), sp.Vars...)
	space, err := lin.NewSpace(nil, append(append([]string{}, names...), lenVarName))
	if err != nil {
		return 0, err
	}
	sys := lin.NewSystem(space)
	for _, q := range sp.Constraints {
		sys.Add(lin.Ineq{Expr: q.Expr.Lift(space)})
	}
	for _, b := range sp.ParamBounds {
		sys.AddGE(lin.Var(space, b.Name), lin.Const(space, b.Lo))
		sys.AddLE(lin.Var(space, b.Name), lin.Const(space, b.Hi))
	}
	sys.AddEq(lin.Var(space, lenVarName), e.Lift(space))
	elim, err := fm.EliminateAll(sys, names, fm.Options{Prune: fm.PruneSimplex})
	if err != nil {
		if err == fm.ErrInfeasible {
			return 0, nil
		}
		return 0, err
	}
	if elim.Dedup() {
		return 0, nil // empty space: the length is never realized
	}
	bounded := false
	var ub int64
	for _, q := range elim.Ineqs {
		c := q.Coeff(lenVarName)
		if c >= 0 {
			continue
		}
		b := ints.FloorDiv(q.K, -c)
		if !bounded || b < ub {
			bounded, ub = true, b
		}
	}
	if !bounded {
		return 0, fmt.Errorf("maximum length is unbounded over the parameter bounds; declare bounds for the parameters involved")
	}
	return ints.Max(0, ub), nil
}

// buildDepGeometry constructs, per dependence, the base memory offset
// and range-step memory offset as parameter-only expressions, plus the
// range length expressions and per-constraint range checks.
func (tl *Tiling) buildDepGeometry() {
	sp := tl.Spec
	n := len(sp.Deps)
	tl.DepLocExpr = make([]lin.Expr, n)
	tl.DepStrideExpr = make([]lin.Expr, n)
	tl.LenExprs = make([]lin.Expr, n)
	tl.RangeChecks = make([][]RangeCheck, n)
	for j := range sp.Deps {
		locE := lin.Zero(sp.Space())
		strideE := lin.Zero(sp.Space())
		for k := range sp.Vars {
			locE = locE.Add(sp.BaseExpr(j, k).Scale(tl.Strides[k]))
			if sp.Deps[j].IsRange() {
				strideE = strideE.Add(sp.DirExpr(j, k).Scale(tl.Strides[k]))
			}
		}
		tl.DepLocExpr[j] = locE
		tl.DepStrideExpr[j] = strideE
		tl.LenExprs[j] = sp.LenExpr(j)
		if !sp.Deps[j].IsRange() {
			continue
		}
		for _, q := range sp.Constraints {
			base := q.Expr
			step := lin.Zero(sp.Space())
			for k, v := range sp.Vars {
				a := q.Coeff(v)
				if a == 0 {
					continue
				}
				base = base.Add(sp.BaseExpr(j, k).Scale(a))
				step = step.Add(sp.DirExpr(j, k).Scale(a))
			}
			tl.RangeChecks[j] = append(tl.RangeChecks[j], RangeCheck{Base: lin.Ineq{Expr: base}, Step: step})
		}
	}
}

// DepLocOffAt evaluates the per-dependence base memory offsets for one
// parameter vector. For specs without variable-distance offsets this
// equals DepLocOff.
func (tl *Tiling) DepLocOffAt(params []int64) []int64 {
	return tl.evalDepExprs(tl.DepLocExpr, params)
}

// DepStrideAt evaluates the per-dependence range-step memory offsets
// for one parameter vector (zero for point dependences).
func (tl *Tiling) DepStrideAt(params []int64) []int64 {
	return tl.evalDepExprs(tl.DepStrideExpr, params)
}

func (tl *Tiling) evalDepExprs(exprs []lin.Expr, params []int64) []int64 {
	vals := make([]int64, tl.Spec.Space().N())
	copy(vals, params)
	out := make([]int64, len(exprs))
	for j, e := range exprs {
		out[j] = e.Eval(vals)
	}
	return out
}

// DepLenAt returns the usable footprint length of dependence j at the
// cell encoded by specVals (a (params | x) vector in the spec's space):
// the declared length clamped to the longest prefix of footprint cells
// inside the iteration space, never negative. Point dependences return
// 1 when valid and 0 otherwise.
func (tl *Tiling) DepLenAt(j int, specVals []int64) int64 {
	if !tl.Spec.Deps[j].IsRange() {
		if tl.DepValid(j, specVals) {
			return 1
		}
		return 0
	}
	n := tl.LenExprs[j].Eval(specVals)
	if n <= 0 {
		return 0
	}
	for _, rc := range tl.RangeChecks[j] {
		v0 := rc.Base.Eval(specVals)
		if v0 < 0 {
			return 0
		}
		if sv := rc.Step.Eval(specVals); sv < 0 {
			if m := v0/(-sv) + 1; m < n {
				n = m
			}
		}
	}
	return n
}

// depChoices returns the per-dimension tile-crossing magnitudes for
// dependence j, from its footprint hull: a footprint reaching R cells
// in a dimension of width w can cross up to ceil(R/w) tile boundaries.
func (tl *Tiling) depChoices(h *spec.Hull, j int) [][]int64 {
	d := len(tl.Spec.Vars)
	choice := make([][]int64, d)
	for k := 0; k < d; k++ {
		switch {
		case h.DepHi[j][k] > 0:
			m := ints.CeilDiv(h.DepHi[j][k], tl.Widths[k])
			for c := int64(0); c <= m; c++ {
				choice[k] = append(choice[k], c)
			}
		case h.DepLo[j][k] < 0:
			m := ints.CeilDiv(-h.DepLo[j][k], tl.Widths[k])
			for c := int64(0); c >= -m; c-- {
				choice[k] = append(choice[k], c)
			}
		default:
			choice[k] = []int64{0}
		}
	}
	return choice
}

// templateReach returns, per dimension k, the templates' least and
// greatest reach along k as forms over the spec space whose only terms
// are parameters. Template j reaches base_k + t·dir_k for t in
// [0, LenMax_j − 1] (t = 0 alone for a point template): parameter-affine
// whenever dir_k's sign is fixed over the declared parameter bounds. A
// dimension's extreme is the template form that is extreme at every
// admissible parameter vector; where no form is, or a step changes sign,
// it falls back to the footprint hull's constant, the value at the
// worst parameters.
func (tl *Tiling) templateReach(h *spec.Hull) (lo, hi []lin.Expr, err error) {
	sp := tl.Spec
	d := len(sp.Vars)
	lo, hi = make([]lin.Expr, d), make([]lin.Expr, d)
	for k := 0; k < d; k++ {
		var los, his []lin.Expr
		for j := range sp.Deps {
			jl := sp.BaseExpr(j, k)
			jh := jl
			if dir := sp.DirExpr(j, k); sp.Deps[j].IsRange() && tl.LenMax[j] > 1 && !(dir.IsConst() && dir.K == 0) {
				dlo, dhi, err := tl.paramRange(dir)
				if err != nil {
					return nil, nil, err
				}
				far := jl.Add(dir.Scale(tl.LenMax[j] - 1))
				switch {
				case dlo >= 0:
					jh = far
				case dhi <= 0:
					jl = far
				default:
					jl, jh = lin.Const(sp.Space(), h.DepLo[j][k]), lin.Const(sp.Space(), h.DepHi[j][k])
				}
			}
			los, his = append(los, jl), append(his, jh)
		}
		if lo[k], err = tl.extreme(los, -1); err != nil {
			return nil, nil, err
		}
		if hi[k], err = tl.extreme(his, 1); err != nil {
			return nil, nil, err
		}
	}
	return lo, hi, nil
}

// extreme returns the greatest (sign +1) or least (sign −1) of the
// parameter-only forms fs: the form that is at least (at most) every
// other at every admissible parameter vector, or else the constant
// extreme of their ranges over the declared parameter bounds. Constant
// forms compare by value.
func (tl *Tiling) extreme(fs []lin.Expr, sign int64) (lin.Expr, error) {
	var cands []lin.Expr
	konst := -1
	for i, f := range fs {
		switch {
		case !f.IsConst():
			if !slices.ContainsFunc(cands, f.Equal) {
				cands = append(cands, f)
			}
		case konst < 0 || sign*f.K > sign*fs[konst].K:
			konst = i
		}
	}
	if konst >= 0 {
		cands = append(cands, fs[konst])
	}
	if len(cands) == 1 {
		return cands[0], nil
	}
	var c int64
	for i, f := range cands {
		top := true
		for _, g := range cands {
			least, _, err := tl.paramRange(f.Sub(g).Scale(sign))
			if err != nil {
				return lin.Expr{}, err
			}
			top = top && least >= 0
		}
		if top {
			return f, nil
		}
		flo, fhi, err := tl.paramRange(f)
		if err != nil {
			return lin.Expr{}, err
		}
		v := fhi
		if sign < 0 {
			v = -flo
		}
		if i == 0 || v > c {
			c = v
		}
	}
	return lin.Const(tl.Spec.Space(), sign*c), nil
}

// paramRange is Spec.ExprHull, without its work for a constant form.
func (tl *Tiling) paramRange(e lin.Expr) (lo, hi int64, err error) {
	if e.IsConst() {
		return e.K, e.K, nil
	}
	return tl.Spec.ExprHull(e)
}

// paramsAt evaluates a spec-space form whose only terms are parameters.
func paramsAt(e lin.Expr, params []int64) int64 {
	v := e.K
	for i, p := range params {
		v += e.CoeffAt(i) * p
	}
	return v
}
