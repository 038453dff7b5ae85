package tiling

import (
	"math"
	"slices"
	"sync/atomic"

	"dpgen/internal/ints"
	"dpgen/internal/lin"
	"dpgen/internal/loopgen"
)

// This file is the row-compiled boundary-tile path. The exact
// enumerators (ForEachCell, ForEachEdgeCell) and DepLenAt interpret
// lin.Expr forms with overflow-checked arithmetic at every cell. A
// RowPlan binds the same forms to one parameter vector instead: the
// parameters fold into constants, every loop bound, validity
// inequality, range length and range check becomes a flat coefficient
// row over the tile and local indices, and one bind-time proof bounds
// every value those rows can take, so the per-tile and per-row
// evaluation uses plain arithmetic. A RowWalker then walks a tile row
// by row — bounds once per row, each dependence's validity as one
// interval along the innermost index, the row split into runs of
// constant validity — and partial edge slabs as contiguous row copies.
// The enumerators stay as the reference the tests diff against and as
// the path taken when the proof fails.

// affine is one form k + tc·t + ic·i with the run's parameters folded
// into k: tc multiplies the tile indices (Spec.Vars order), ic the
// local indices in loop-level order (ic[l] belongs to the variable of
// loop level l, so a bound of level l reads only ic[:l]). div is a loop
// bound's divisor, 1 for plain inequalities.
type affine struct {
	k, div int64
	tc, ic []int64
}

// proofLimit bounds |k| + Σ|tc|·max|t| + Σ|ic|·max|i| for every form:
// below it no partial sum, negation, ±1 or division result of a row
// evaluation, nor a shape key's extreme over the tile box, can leave
// int64.
const proofLimit = int64(1) << 62

// satAdd and satMul are saturating arithmetic on magnitudes (>= 0).
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

func mag(a int64) int64 {
	if a == math.MinInt64 {
		return math.MaxInt64
	}
	if a < 0 {
		return -a
	}
	return a
}

// form is one affine form as BindRows folds it: the part no parameter
// moves, laid out once per tiling (rowTemplate). k holds the constant
// term, tc and ic the coefficients every plan bound from the form
// shares; pc are the parameter coefficients folded into k, fixed the
// overflow bound's parameter-free part |k| + Σ|ic|·max|i|, and wide
// marks a tile coefficient that alone exceeds proofLimit.
type form struct {
	affine
	pc    []int64
	fixed int64
	wide  bool
}

// layout lays out a tiling's forms, cutting their coefficients from
// chunks of an arena.
type layout struct {
	tl    *Tiling
	arena []int64
	fixed []form // nest's scratch
}

// newForm lays out a form over (params | t | i). pc are its parameter
// coefficients, tc and ic its tile and local coefficients in Spec.Vars
// order (ic may be nil); local indices range over the allocated extent.
func (lay *layout) newForm(k0 int64, pc, tc, ic []int64, div int64) form {
	tl := lay.tl
	d := len(tl.Spec.Vars)
	if len(lay.arena) < 2*d {
		lay.arena = make([]int64, 128*d)
	}
	c := lay.arena[: 2*d : 2*d]
	lay.arena = lay.arena[2*d:]
	f := form{affine: affine{k: k0, div: div, tc: c[:d:d], ic: c[d:]}, pc: pc, fixed: mag(k0)}
	copy(f.tc, tc)
	if ic != nil {
		for l, k := range tl.orderIdx {
			f.ic[l] = ic[k]
			f.fixed = satAdd(f.fixed, satMul(mag(ic[k]), tl.Alloc[k]))
		}
	}
	return f
}

// localForm lays out a form over the local space (params, t | i).
func (lay *layout) localForm(e lin.Expr, div int64) form {
	np, d := len(lay.tl.Spec.Params), len(lay.tl.Spec.Vars)
	return lay.newForm(e.K, e.Coef[:np], e.Coef[np:np+d], e.Coef[np+d:], div)
}

// tileForm lays out a form over the tile space (params | t).
func (lay *layout) tileForm(e lin.Expr) form {
	np := len(lay.tl.Spec.Params)
	return lay.newForm(e.K, e.Coef[:np], e.Coef[np:], nil, 1)
}

// specForm lays out a form over the spec space (params | x) through
// x_k = i_k + w_k t_k.
func (lay *layout) specForm(e lin.Expr) form {
	tl := lay.tl
	np, d := len(tl.Spec.Params), len(tl.Spec.Vars)
	var small [8]int64
	tc, wide := small[:0], false
	for k, a := range e.Coef[np : np+d] {
		wide = wide || satMul(mag(a), tl.Widths[k]) > proofLimit
		tc = append(tc, a*tl.Widths[k])
	}
	f := lay.newForm(e.K, e.Coef[:np], tc, e.Coef[np:], 1)
	f.wide = wide
	return f
}

// bind folds f at params. ok turns false when the form's magnitude bound
// over tile indices of magnitude at most tmax exceeds proofLimit.
func (f *form) bind(params, tmax []int64, ok *bool) affine {
	a, m := f.affine, f.fixed
	for i, c := range f.pc {
		a.k += c * params[i]
		m = satAdd(m, satMul(mag(c), mag(params[i])))
	}
	for k, c := range a.tc {
		m = satAdd(m, satMul(mag(c), tmax[k]))
	}
	if f.wide || m > proofLimit {
		*ok = false
	}
	return a
}

// bindForms folds fs into dst, which has their length.
func bindForms(dst []affine, fs []form, params, tmax []int64, ok *bool) []affine {
	for i := range fs {
		dst[i] = fs[i].bind(params, tmax, ok)
	}
	return dst
}

// levelForms locates one loop level's bounds in a nestPlan's forms:
// lower bounds forms[lo0:lo1], upper bounds forms[lo1:up1]. Within
// each side the bounds that involve an enclosing level's index come
// first, forms[lo0:lov] and forms[lo1:upv]; the rest are constant over a
// tile and fold into one value per tile (most are the 0 and w-1 of the
// tile box).
type levelForms struct{ lo0, lov, lo1, upv, up1 int }

// nestPlan is a loopgen.Nest over the local space bound to one
// parameter vector. forms holds the level bounds, then the residual
// (tile-only) constraints forms[res0:nnest], then — for the cell nest —
// the dependence forms.
type nestPlan struct {
	forms  []affine
	levels []levelForms
	res0   int
	nnest  int
}

// nestForms is a nestPlan's layout: its forms unbound, the levels every
// plan shares.
type nestForms struct {
	forms       []form
	levels      []levelForms
	res0, nnest int
}

// nest lays out nest n's forms.
// extra reserves room for forms appended after the nest's own.
func (lay *layout) nest(n *loopgen.Nest, extra int) nestForms {
	size := len(n.Residual.Ineqs) + extra
	for _, lvl := range n.Levels {
		size += len(lvl.Lower) + len(lvl.Upper)
	}
	nf := nestForms{forms: make([]form, 0, size), levels: make([]levelForms, 0, len(n.Levels))}
	// side appends one side of level l's bounds, row-varying ones first,
	// and returns the index where the tile-constant ones start.
	side := func(l int, bounds []loopgen.Bound) int {
		fixed := lay.fixed[:0]
		for _, bd := range bounds {
			f := lay.localForm(bd.Num, bd.Div)
			if allZero(f.ic[:l]) {
				fixed = append(fixed, f)
			} else {
				nf.forms = append(nf.forms, f)
			}
		}
		varying := len(nf.forms)
		nf.forms = append(nf.forms, fixed...)
		lay.fixed = fixed
		return varying
	}
	for l, lvl := range n.Levels {
		lf := levelForms{lo0: len(nf.forms)}
		lf.lov = side(l, lvl.Lower)
		lf.lo1 = len(nf.forms)
		lf.upv = side(l, lvl.Upper)
		lf.up1 = len(nf.forms)
		nf.levels = append(nf.levels, lf)
	}
	nf.res0 = len(nf.forms)
	for _, q := range n.Residual.Ineqs {
		nf.forms = append(nf.forms, lay.localForm(q.Expr, 1))
	}
	nf.nnest = len(nf.forms)
	return nf
}

// bind folds the nest into dst, which has the length of its forms.
func (nf *nestForms) bind(dst []affine, params, tmax []int64, ok *bool) nestPlan {
	return nestPlan{forms: bindForms(dst, nf.forms, params, tmax, ok), levels: nf.levels, res0: nf.res0, nnest: nf.nnest}
}

func allZero(v []int64) bool {
	for _, c := range v {
		if c != 0 {
			return false
		}
	}
	return true
}

// depPlan is one template dependence's forms inside the cell nestPlan.
// A point dependence is valid where forms[v0:v1] (its Validity
// inequalities) all hold. A range dependence has its length form at ln
// and its RangeChecks bases at forms[v0:v1]; neg[c] is minus check c's
// step when that step is negative at the bound parameters (the check
// then clamps the length), else zero.
type depPlan struct {
	v0, v1 int
	rng    int // index among the range dependences, -1 for a point dependence
	ln     int
	neg    []int64
}

// rowTemplate is what BindRows binds, laid out once by New: every form
// of the cell nest (the dependence forms after the nest's own), the
// shape keys, the pack nests and the probe's systems, with everything
// about them that no parameter moves.
type rowTemplate struct {
	cells              nestForms
	deps               []depPlan // neg unset
	steps              [][]form  // per range dependence, its range checks' steps
	nrange             int
	sys                []form
	sysRules, depRules []clampRule
	lnVaries, lnFlat   bool
	packs              []nestForms
	nforms             int
	boxRows            int64
	space, interior    []form
	core               []form
	reach              []int64 // per dimension, the farthest neighbour tile's distance
	nbound             int     // forms a plan binds
}

// layoutRows lays out the row template: see rowTemplate.
func (tl *Tiling) layoutRows() {
	sp := tl.Spec
	d := len(sp.Vars)
	ndep := 0 // dependence forms, after the cell nest's own
	for j := range sp.Deps {
		if sp.Deps[j].IsRange() {
			ndep += len(tl.RangeChecks[j]) + 1
		} else {
			ndep += len(tl.Validity[j])
		}
	}
	lay := &layout{tl: tl}
	rt := rowTemplate{
		cells: lay.nest(tl.LocalNest, ndep), deps: make([]depPlan, len(sp.Deps)), lnFlat: true, reach: make([]int64, d),
		depRules: make([]clampRule, 0, ndep), packs: make([]nestForms, 0, len(tl.TileDeps)),
	}
	for _, td := range tl.TileDeps {
		for k, o := range td.Offset {
			rt.reach[k] = ints.Max(rt.reach[k], mag(o))
		}
	}
	for _, q := range tl.localSys.Ineqs {
		if f := lay.localForm(q.Expr, 1); !allZero(f.tc) {
			rt.sys = append(rt.sys, f)
			rt.sysRules = append(rt.sysRules, tl.boxRule(f.ic, 0))
		}
	}
	forms := rt.cells.forms
	// A dependence form is read as r + c·i >= 0 at every cell, a length
	// form as length >= 1.
	depForm := func(f form, k int64) {
		forms = append(forms, f)
		rt.depRules = append(rt.depRules, tl.boxRule(f.ic, k))
	}
	for j := range sp.Deps {
		dp := depPlan{v0: len(forms), rng: -1}
		if sp.Deps[j].IsRange() {
			dp.rng = rt.nrange
			rt.nrange++
			var steps []form
			for _, rc := range tl.RangeChecks[j] {
				steps = append(steps, lay.specForm(rc.Step))
				depForm(lay.specForm(rc.Base.Expr), 0)
			}
			rt.steps = append(rt.steps, steps)
			dp.v1 = len(forms)
			dp.ln = len(forms)
			depForm(lay.specForm(tl.LenExprs[j]), -1)
			rt.lnVaries = rt.lnVaries || !allZero(forms[dp.ln].tc)
			rt.lnFlat = rt.lnFlat && allZero(forms[dp.ln].ic)
		} else {
			for _, q := range tl.Validity[j] {
				depForm(lay.specForm(q.Expr), 0)
			}
			dp.v1 = len(forms)
		}
		rt.deps[j] = dp
	}
	rt.cells.forms = forms
	rt.nforms = len(forms)
	for _, td := range tl.TileDeps {
		nf := lay.nest(td.PackNest, 0)
		rt.nforms = max(rt.nforms, len(nf.forms))
		rt.packs = append(rt.packs, nf)
		rt.nbound += len(nf.forms)
	}
	rt.boxRows = 1
	for _, k := range tl.orderIdx[:d-1] {
		rt.boxRows *= tl.Widths[k]
	}
	tileForms := func(sys *lin.System) []form {
		fs := make([]form, len(sys.Ineqs))
		for i, q := range sys.Ineqs {
			fs[i] = lay.tileForm(q.Expr)
		}
		return fs
	}
	rt.space, rt.interior, rt.core = tileForms(tl.TileSys), tileForms(tl.InteriorSys), tileForms(tl.CoreSys)
	rt.nbound += len(rt.cells.forms) + len(rt.sys) + len(rt.space) + len(rt.interior) + len(rt.core)
	tl.rows = rt
}

// RowPlan is the run-bound compiled form of a tiling's cell nest,
// dependence validity and edge-slab nests for one parameter vector, with
// the interior slabs at those parameters (fastpath.go) and the table of
// tile shapes compiled from it (shapes.go). It is safe to
// share: the table is filled by Slabs before any run reads it and is
// read-only afterwards; per-goroutine state lives in the RowWalkers and
// ShapeReaders made from it.
type RowPlan struct {
	tl     *Tiling
	ok     bool
	cells  nestPlan
	deps   []depPlan
	nrange int
	packs  []nestPlan
	nforms int // largest forms slice: walker scratch size
	// boxRows is the tile box's row count, the product of the outer
	// loop levels' widths: no tile has more rows, nor a slab more spans.
	boxRows int64

	// Shape keys (shapes.go): the local system's inequalities that vary
	// with the tile, and the rules of the dependence forms (index minus
	// cells.nnest). lnVaries: a range length varies with the tile, so
	// interior tiles may differ in shape. lnFlat: no range length varies
	// with the local indices, so a tile may settle its lengths once
	// (ShapeReader.ConstLens).
	sysForms           []affine
	sysRules, depRules []clampRule
	lnVaries, lnFlat   bool

	// probe is the tile-space probe bound to the plan's parameters, the
	// one NewProbe copies.
	probe TileProbe

	// The interior slabs at the plan's parameters (bindSlabs): per tile
	// dependence, the cell count and the [start, end) spans.
	edgeSize []int64
	slabs    [][]int64

	table  shapeTable
	budget int64        // the table's bound in rows: shapeBudget
	walked atomic.Int64 // rows walked compiling shapes
}

// BindRows compiles the row plan for params. It does no
// Fourier–Motzkin or simplex work: it folds the parameters into the
// forms New laid out (rowTemplate), one pass over them.
func (tl *Tiling) BindRows(params []int64) *RowPlan {
	rt := &tl.rows
	params = slices.Clone(params) // the probe keeps them
	lo, hi := tl.TileBounds(params)
	// The probe's proof box is the tile bounds, the plan's is widened by
	// the reach: its forms are evaluated at neighbour tiles too.
	d := len(lo)
	box := make([]int64, 2*d)
	tmax, reach := box[:d:d], box[d:]
	for k := range tmax {
		tmax[k] = ints.Max(1, ints.Max(mag(lo[k]), mag(hi[k])))
		reach[k] = satAdd(tmax[k], rt.reach[k])
	}
	all := make([]affine, rt.nbound)
	cut := func(n int) []affine {
		s := all[:n:n]
		all = all[n:]
		return s
	}
	p := &RowPlan{
		tl: tl, deps: rt.deps, nrange: rt.nrange, packs: make([]nestPlan, len(rt.packs)), nforms: rt.nforms, boxRows: rt.boxRows,
		sysRules: rt.sysRules, depRules: rt.depRules, lnVaries: rt.lnVaries, lnFlat: rt.lnFlat, budget: shapeBudget,
	}
	folded, ok := true, true
	p.probe = TileProbe{
		tl: tl, lo: lo, hi: hi, params: params,
		space:    bindForms(cut(len(rt.space)), rt.space, params, tmax, &folded),
		interior: bindForms(cut(len(rt.interior)), rt.interior, params, tmax, &folded),
		core:     bindForms(cut(len(rt.core)), rt.core, params, tmax, &folded),
	}
	if p.probe.folded = folded; folded {
		p.probe.space = pruneForms(p.probe.space, lo, hi)
		p.probe.interior = pruneForms(p.probe.interior, lo, hi)
		p.probe.core = pruneForms(p.probe.core, lo, hi)
	}
	p.cells = rt.cells.bind(cut(len(rt.cells.forms)), params, reach, &ok)
	p.sysForms = bindForms(cut(len(rt.sys)), rt.sys, params, reach, &ok)
	if rt.nrange > 0 {
		p.deps = slices.Clone(rt.deps)
		for j := range p.deps {
			if g := p.deps[j].rng; g >= 0 {
				p.deps[j].neg = make([]int64, len(rt.steps[g]))
				for c := range rt.steps[g] {
					p.deps[j].neg[c] = ints.Max(0, -rt.steps[g][c].bind(params, reach, &ok).k)
				}
			}
		}
	}
	for i := range rt.packs {
		p.packs[i] = rt.packs[i].bind(cut(len(rt.packs[i].forms)), params, reach, &ok)
	}
	p.bindSlabs(params)
	p.table = shapeTable{cells: map[string]*Shape{}, slabs: map[string][][]int64{}}
	// A shape's run holds its validity as a 64-bit mask, bit 63 clear.
	p.ok = ok && len(tl.Spec.Deps) < 64
	return p
}

// NewProbe returns a tile probe bound to the plan's parameters: a copy
// of the one BindRows bound, with its own scratch, for one goroutine.
func (p *RowPlan) NewProbe() *TileProbe { return p.probe.copy() }

// OK reports whether the overflow proof held and the spec has fewer than
// 64 dependences. When not, the plan must not be walked: callers keep to
// the checked enumerators.
func (p *RowPlan) OK() bool { return p.ok }

// lenRow is one range dependence's length along a row: r + c·i with r
// relative to the tile's folded base of form ln, clamped by the row's
// clamps[c0:c1]. Being relative, it is the same row for every tile of a
// shape.
type lenRow struct {
	dep, ln int32
	c0, c1  int32
	r, c    int64
}

// rangeClamp caps a range length at (base[f] + r + c·i)/neg + 1: a
// footprint check whose step is negative, r relative to form f's base.
type rangeClamp struct {
	f         int
	r, c, neg int64
}

// RowWalker is per-goroutine scratch for walking tiles of one RowPlan:
//
//	rw.Begin(t)
//	for rw.NextRow() {        // rw.RowLoc: the row's origin
//		for rw.NextRun() {    // rw.From..rw.To: cells with constant rw.DepValid
//			...
//		}
//	}
//
// Rows and the cells of their runs come in ForEachCell order, and
// DepValid and the run's length rows agree with DepLenAt at every cell.
// The walker compiles shapes (shapes.go) and is the tests' reference for
// them; runs replay shapes rather than walk.
type RowWalker struct {
	plan *RowPlan

	// RowLoc is the buffer index of the row's cell with innermost local
	// index 0.
	RowLoc int64
	// From and To are the current run's first and last innermost local
	// indices in execution order (From > To when the innermost loop
	// descends).
	From, To int64
	// DepValid holds the current run's per-dependence validity.
	DepValid []bool

	// Nest cursor: base[f] is forms[f] at the current tile with the
	// local indices zero; clo..chi is each level's range from its
	// tile-constant bounds; il and end are the per-level current and
	// last indices in execution order; lo..hi is the innermost range.
	np       *nestPlan
	base     []int64
	clo, chi []int64
	il, end  []int64
	dirs     []int
	lo, hi   int64
	first    bool // no row visited yet
	done     bool // the nest is empty for this tile

	cellDirs, ascending []int
	strides             []int64 // per loop level

	// Row dependence state: per-dependence validity interval, the
	// ascending cut points splitting the row into runs, the row's length
	// rows (one per range dependence) with their clamps, and the rows of
	// the range dependences valid in the current run.
	vlo, vhi []int64
	cuts     []int64
	run      int
	lens     []lenRow
	clamps   []rangeClamp
	active   []lenRow
}

// NewWalker creates a walker, or nil when the plan's overflow proof
// failed.
func (p *RowPlan) NewWalker() *RowWalker {
	if !p.ok {
		return nil
	}
	tl := p.tl
	d := len(tl.Spec.Vars)
	nd := len(p.deps)
	// The int64 scratch is cut from one array, as are the directions and
	// the length rows.
	ints := make([]int64, p.nforms+5*d+4*nd)
	cut := func(n int) []int64 {
		s := ints[:n:n]
		ints = ints[n:]
		return s
	}
	dirs := make([]int, 2*d)
	lens := make([]lenRow, 2*p.nrange)
	rw := &RowWalker{
		plan:      p,
		DepValid:  make([]bool, nd),
		base:      cut(p.nforms),
		clo:       cut(d),
		chi:       cut(d),
		il:        cut(d),
		end:       cut(d),
		cellDirs:  dirs[:d:d],
		ascending: dirs[d:],
		strides:   cut(d),
		vlo:       cut(nd),
		vhi:       cut(nd),
		cuts:      cut(2 * nd)[:0],
		lens:      lens[:p.nrange:p.nrange],
		active:    lens[p.nrange:p.nrange],
	}
	for l, k := range tl.orderIdx {
		rw.cellDirs[l] = tl.ExecDirs[k]
		rw.ascending[l] = 1
		rw.strides[l] = tl.Strides[k]
	}
	return rw
}

// at evaluates the form at tile t with the local indices zero.
func (f *affine) at(t []int64) int64 {
	v := f.k
	for k, c := range f.tc {
		v += c * t[k]
	}
	return v
}

// begin points the cursor at nest np for tile t. It reports false when
// the nest is empty for that tile outright.
func (rw *RowWalker) begin(np *nestPlan, t []int64, dirs []int) bool {
	rw.np, rw.dirs, rw.first, rw.done = np, dirs, true, false
	for f := range np.forms {
		rw.base[f] = np.forms[f].at(t)
	}
	for f := np.res0; f < np.nnest; f++ {
		if rw.base[f] < 0 {
			rw.done = true
			return false
		}
	}
	for l, lf := range np.levels {
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		for f := lf.lov; f < lf.lo1; f++ {
			lo = max(lo, ints.CeilDiv(rw.base[f], np.forms[f].div))
		}
		for f := lf.upv; f < lf.up1; f++ {
			hi = min(hi, ints.FloorDiv(rw.base[f], np.forms[f].div))
		}
		rw.clo[l], rw.chi[l] = lo, hi
	}
	return true
}

// formAt evaluates forms[f] at the current tile and the current indices
// of the loop levels enclosing level l.
func (rw *RowWalker) formAt(f, l int) int64 {
	v := rw.base[f]
	for m, c := range rw.np.forms[f].ic[:l] {
		v += c * rw.il[m]
	}
	return v
}

// levelBounds evaluates loop level l's range given the enclosing
// levels' indices.
func (rw *RowWalker) levelBounds(l int) (lo, hi int64) {
	forms, lf := rw.np.forms, rw.np.levels[l]
	lo, hi = rw.clo[l], rw.chi[l]
	for f := lf.lo0; f < lf.lov; f++ {
		v := rw.formAt(f, l)
		if dv := forms[f].div; dv != 1 {
			v = ints.CeilDiv(v, dv)
		}
		lo = max(lo, v)
	}
	for f := lf.lo1; f < lf.upv; f++ {
		v := rw.formAt(f, l)
		if dv := forms[f].div; dv != 1 {
			v = ints.FloorDiv(v, dv)
		}
		hi = min(hi, v)
	}
	return lo, hi
}

// next advances the cursor to the next non-empty row of the nest: the
// outer levels' indices in il, the innermost range in lo..hi.
func (rw *RowWalker) next() bool {
	if rw.done {
		return false
	}
	last := len(rw.il) - 1
	l, enter := last-1, false
	if rw.first {
		rw.first = false
		l, enter = 0, true
	}
	for l >= 0 {
		if !enter {
			if rw.il[l] == rw.end[l] {
				l--
				continue
			}
			rw.il[l] += int64(rw.dirs[l])
			l, enter = l+1, true
			continue
		}
		lo, hi := rw.levelBounds(l)
		if hi < lo {
			l, enter = l-1, false
			continue
		}
		if l == last {
			rw.lo, rw.hi = lo, hi
			return true
		}
		if rw.dirs[l] < 0 {
			rw.il[l], rw.end[l] = hi, lo
		} else {
			rw.il[l], rw.end[l] = lo, hi
		}
		l++
	}
	return false
}

// rowLoc returns the buffer index of the current row's origin.
func (rw *RowWalker) rowLoc() int64 {
	loc := rw.plan.tl.BaseOff
	for l, s := range rw.strides[:len(rw.strides)-1] {
		loc += rw.il[l] * s
	}
	return loc
}

// Begin starts walking tile t's cells.
func (rw *RowWalker) Begin(t []int64) {
	rw.begin(&rw.plan.cells, t, rw.cellDirs)
}

// NextRow advances to the tile's next non-empty row in execution order.
func (rw *RowWalker) NextRow() bool {
	if !rw.next() {
		return false
	}
	rw.RowLoc = rw.rowLoc()
	rw.run = 0
	rw.cuts = rw.cuts[:0]
	rw.rowDeps()
	return true
}

// rowForm evaluates forms[f] on the current row as r + c·i over the
// innermost local index i.
func (rw *RowWalker) rowForm(f int) (r, c int64) {
	last := len(rw.il) - 1
	return rw.formAt(f, last), rw.np.forms[f].ic[last]
}

// clip intersects [a, b] with the solutions of r + c·i >= 0.
func clip(a, b, r, c int64) (int64, int64) {
	switch {
	case c == 1:
		a = max(a, -r)
	case c == -1:
		b = min(b, r)
	case c > 0:
		a = max(a, ints.CeilDiv(-r, c))
	case c < 0:
		b = min(b, ints.FloorDiv(r, -c))
	case r < 0:
		b = a - 1
	}
	return a, b
}

// rowDeps intersects each dependence's inequalities into one validity
// interval along the row and collects the interval ends inside the row
// as cut points.
func (rw *RowWalker) rowDeps() {
	rw.clamps = rw.clamps[:0]
	for j := range rw.plan.deps {
		dp := &rw.plan.deps[j]
		a, b := rw.lo, rw.hi
		var lr *lenRow
		if dp.rng >= 0 {
			// Usable length > 0 needs the declared length >= 1 ...
			r, c := rw.rowForm(dp.ln)
			lr = &rw.lens[dp.rng]
			*lr = lenRow{dep: int32(j), ln: int32(dp.ln), c0: int32(len(rw.clamps)), r: r - rw.base[dp.ln], c: c}
			a, b = clip(a, b, r-1, c)
		}
		// ... and the footprint's first cell inside every constraint.
		for f := dp.v0; f < dp.v1 && a <= b; f++ {
			r, c := rw.rowForm(f)
			a, b = clip(a, b, r, c)
			if lr != nil && dp.neg[f-dp.v0] > 0 {
				rw.clamps = append(rw.clamps, rangeClamp{f, r - rw.base[f], c, dp.neg[f-dp.v0]})
			}
		}
		if lr != nil {
			lr.c1 = int32(len(rw.clamps))
		}
		rw.vlo[j], rw.vhi[j] = a, b
		if a <= b {
			if a > rw.lo {
				rw.addCut(a)
			}
			if b < rw.hi {
				rw.addCut(b + 1)
			}
		}
	}
}

// addCut inserts c into the ascending, duplicate-free cuts.
func (rw *RowWalker) addCut(c int64) {
	i := len(rw.cuts)
	for i > 0 && rw.cuts[i-1] >= c {
		i--
	}
	if i < len(rw.cuts) && rw.cuts[i] == c {
		return
	}
	rw.cuts = append(rw.cuts, 0)
	copy(rw.cuts[i+1:], rw.cuts[i:])
	rw.cuts[i] = c
}

// NextRun advances to the row's next run in execution order.
func (rw *RowWalker) NextRun() bool {
	n := len(rw.cuts)
	if rw.run > n {
		return false
	}
	r := rw.run
	rw.run++
	desc := rw.dirs[len(rw.dirs)-1] < 0
	if desc {
		r = n - r
	}
	s, e := rw.lo, rw.hi
	if r > 0 {
		s = rw.cuts[r-1]
	}
	if r < n {
		e = rw.cuts[r] - 1
	}
	rw.From, rw.To = s, e
	if desc {
		rw.From, rw.To = e, s
	}
	rw.active = rw.active[:0]
	for j := range rw.DepValid {
		v := rw.vlo[j] <= s && s <= rw.vhi[j]
		rw.DepValid[j] = v
		if g := rw.plan.deps[j].rng; v && g >= 0 {
			rw.active = append(rw.active, rw.lens[g])
		}
	}
	return true
}

// cellLens fills lens for the range dependences of rows at innermost
// local index i; base holds the tile's folded forms.
func cellLens(rows []lenRow, clamps []rangeClamp, base []int64, i int64, lens []int64) {
	for _, lr := range rows {
		n := base[lr.ln] + lr.r + lr.c*i
		for _, ck := range clamps[lr.c0:lr.c1] {
			n = min(n, (base[ck.f]+ck.r+ck.c*i)/ck.neg+1)
		}
		lens[lr.dep] = n
	}
}

// lenRun fills lens at innermost local index i, like cellLens, and
// returns how many of the cnt cells from i onwards in direction dir share
// those lengths: the longest prefix of the run's remainder over which no
// range dependence's usable length changes. It works on the row forms —
// every term of a length, the declared r + c·i and each clamp, is
// monotone along the row, so where it leaves its current value is one
// division — not by evaluating the lengths cell by cell.
func lenRun(rows []lenRow, clamps []rangeClamp, base []int64, i, cnt, dir int64, lens []int64) int64 {
	cellLens(rows, clamps, base, i, lens)
	for _, lr := range rows {
		// The declared length is the clamp form (r-1 + c·i)/1 + 1.
		decl := rangeClamp{int(lr.ln), lr.r - 1, lr.c, 1}
		cnt = holdLen(decl, clamps[lr.c0:lr.c1], base, i, dir, lens[lr.dep], cnt)
	}
	return cnt
}

// holdLen returns for how many of the cnt steps t = 0, 1, ... from index
// i in direction dir the min over the terms {first, rest...} of
// (base[f] + r + c·(i + dir·t))/neg + 1 stays at n, its value at t = 0:
// at least 1, at most cnt. Every numerator is non-negative on a valid
// run, so / is floor.
func holdLen(first rangeClamp, rest []rangeClamp, base []int64, i, dir, n, cnt int64) int64 {
	// The minimum holds while no term has fallen below n (before fall)
	// and some term still equals n: a rising term that starts at n
	// equals it on [0, rise), a falling one from when it reaches n
	// (reach) until it falls below.
	fall, rise, reach := cnt, int64(0), cnt
	for k := -1; k < len(rest); k++ {
		ck := first
		if k >= 0 {
			ck = rest[k]
		}
		num, slope := base[ck.f]+ck.r+ck.c*i, ck.c*dir
		switch {
		case slope < 0:
			// Below n once num < (n-1)·neg; at most n once num < n·neg.
			fall = min(fall, (num-(n-1)*ck.neg)/-slope+1)
			if over := num - n*ck.neg; over < 0 {
				reach = 0
			} else {
				reach = min(reach, over/-slope+1)
			}
		case num/ck.neg+1 > n:
			// Level or rising above n: never the minimum.
		case slope == 0:
			reach = 0
		default:
			// Above n once num >= n·neg.
			rise = max(rise, (n*ck.neg-num+slope-1)/slope)
		}
	}
	if reach <= rise {
		return fall
	}
	return min(fall, rise)
}
