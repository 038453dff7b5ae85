package tiling

import (
	"fmt"
	"slices"

	"dpgen/internal/fm"
	"dpgen/internal/ints"
	"dpgen/internal/lin"
	"dpgen/internal/loopgen"
)

// This file is the interior-tile fast path of the analysis: a
// Fourier–Motzkin-style shrink of the tile space by the template reach
// classifies tiles whose entire dependence shell lies inside the
// iteration space. For such tiles every cell of the full w_1 x ... x w_d
// rectangle is in the space and every template dependence is valid at
// every cell, so the runtime (and the generated programs) can skip
// bound and validity evaluation altogether (the row walker of rows.go
// yields full, all-valid rows; generated programs run a dense loop
// nest); edge packing likewise collapses to strided copies of
// constant-size slabs.

// DenseLevel is one loop of the precompiled interior-tile nest, in loop
// order (outermost first).
type DenseLevel struct {
	Var    int   // variable index (Spec.Vars order)
	Width  int64 // trip count: the full tile width w_k
	Stride int64 // buffer stride of the variable
	Dir    int   // iteration direction (ExecDirs[Var])
}

// buildFastPath constructs the interior classification, the dense cell
// nest, the full edge slabs and the per-dimension tile bounds. Called
// from New after the tile deps exist.
func (tl *Tiling) buildFastPath() error {
	tl.buildInteriorSys()
	tl.buildCoreSys()
	tl.buildDense()
	tl.buildInteriorSlabs()
	return tl.buildDimNests()
}

// buildInteriorSys shrinks the tile space by the dependence shell: tile
// t is interior iff every iteration-space constraint a.x + b.p + c >= 0
// holds over the whole shell box
//
//	x_k in [w_k t_k - GhostLo_k,  w_k t_k + w_k - 1 + GhostHi_k].
//
// The minimum of the affine form over that box is itself affine in t
// (substitute x_k = w_k t_k and subtract the worst-case per-dimension
// excursion), giving one tile-space inequality per constraint.
func (tl *Tiling) buildInteriorSys() {
	sp := tl.Spec
	sys := lin.NewSystem(tl.tileSpace)
	for _, q := range sp.System().Ineqs {
		e := lin.Const(tl.tileSpace, q.K)
		for _, pn := range sp.Params {
			if c := q.Coeff(pn); c != 0 {
				e = e.Add(lin.Term(tl.tileSpace, c, pn))
			}
		}
		for k, vn := range sp.Vars {
			a := q.Coeff(vn)
			if a == 0 {
				continue
			}
			e = e.Add(lin.Term(tl.tileSpace, ints.MulChecked(a, tl.Widths[k]), tName(vn)))
			if a > 0 {
				// Minimum at the low end of the shell.
				e = e.AddConst(ints.MulChecked(-a, tl.GhostLo[k]))
			} else {
				// Minimum at the high end of the shell.
				e = e.AddConst(ints.MulChecked(a, tl.Widths[k]-1+tl.GhostHi[k]))
			}
		}
		sys.Add(lin.Ineq{Expr: e})
	}
	tl.InteriorSys = sys
}

// buildCoreSys conjoins InteriorSys with TileSys tightened to hold at
// every neighbour tile. A tile-space row q with tile coefficients c takes
// the value q(t) ± c·off_j at the producer t + off_j and the consumer
// t − off_j, so all of them satisfy q iff q(t) − max_j |c·off_j| >= 0:
// the minimum of an affine form over a point set, as in buildInteriorSys,
// and exact because the set is finite. One row per TileSys and
// InteriorSys row, nothing pruned.
func (tl *Tiling) buildCoreSys() {
	np := len(tl.Spec.Params)
	sys := lin.NewSystem(tl.tileSpace)
	for _, q := range tl.TileSys.Ineqs {
		var worst int64
		for _, dep := range tl.TileDeps {
			var shift int64
			for k, o := range dep.Offset {
				shift = ints.AddChecked(shift, ints.MulChecked(q.Coef[np+k], o))
			}
			worst = ints.Max(worst, mag(shift))
		}
		sys.Add(lin.Ineq{Expr: q.Expr.AddConst(-worst)})
	}
	sys.Add(tl.InteriorSys.Ineqs...)
	tl.CoreSys = sys
}

// buildDense records the precompiled interior cell nest: full tile
// widths with the memory strides and execution directions, in loop
// order.
func (tl *Tiling) buildDense() {
	tl.Dense = make([]DenseLevel, len(tl.orderIdx))
	for lvl, k := range tl.orderIdx {
		tl.Dense[lvl] = DenseLevel{Var: k, Width: tl.Widths[k], Stride: tl.Strides[k], Dir: tl.ExecDirs[k]}
	}
}

// buildInteriorSlabs records each tile dependence's slab box over the
// declared parameter bounds (slabBox) as [start, end) buffer spans, the
// form ShapeReader replays, with its size. A run's box (BindRows) lies
// inside it.
func (tl *Tiling) buildInteriorSlabs() {
	tl.InteriorEdgeSize = make([]int64, len(tl.TileDeps))
	tl.interiorSlab = make([][]int64, len(tl.TileDeps))
	for j, box := range tl.slabBox {
		tl.interiorSlab[j], tl.InteriorEdgeSize[j] = tl.slabSpans(box)
	}
}

// cutToTile cuts the local index range lo..hi along dimension k to the
// tile and returns its first index and count.
func (tl *Tiling) cutToTile(k int, lo, hi int64) (first, cnt int64) {
	first = ints.Max(0, lo)
	return first, ints.Max(0, ints.Min(tl.Widths[k]-1, hi)-first+1)
}

// slabSpans lays out the slab box whose dimension k holds box[d+k]
// local indices from box[k] on as [start, end) buffer spans: in loop
// order, ascending, as PackNest.Enumerate scans it, one span per
// innermost row, so full-slab and nest-packed edges are interchangeable
// whenever their cell sets coincide. It returns them with the box's cell
// count; an empty box has no span.
func (tl *Tiling) slabSpans(box []int64) ([]int64, int64) {
	d := len(tl.Spec.Vars)
	start, size := tl.BaseOff, int64(1)
	for k := 0; k < d; k++ {
		start += box[k] * tl.Strides[k]
		size = ints.MulChecked(size, box[d+k])
	}
	if size == 0 {
		return nil, 0
	}
	// One innermost row, then each outer level from the inside out
	// repeats the spans so far once per further trip.
	spans := make([]int64, 2, 2*size/box[d+tl.orderIdx[d-1]])
	spans[0], spans[1] = start, start+box[d+tl.orderIdx[d-1]]
	for lvl := d - 2; lvl >= 0; lvl-- {
		k := tl.orderIdx[lvl]
		n := len(spans)
		for c := int64(1); c < box[d+k]; c++ {
			for _, v := range spans[:n] {
				spans = append(spans, v+c*tl.Strides[k])
			}
		}
	}
	return spans, size
}

// buildDimNests builds, per dimension, a one-variable nest over
// (params | t_k) by eliminating every other tile index — the bounding
// box of the tile space, used for collision-free integer tile keys.
func (tl *Tiling) buildDimNests() error {
	sp := tl.Spec
	d := len(sp.Vars)
	tl.dimNests = make([]*loopgen.Nest, d)
	for k := 0; k < d; k++ {
		var others []string
		for i, v := range sp.Vars {
			if i != k {
				others = append(others, tName(v))
			}
		}
		elim, err := fm.EliminateAll(tl.TileSys, others, fm.Options{})
		if err != nil {
			return fmt.Errorf("tiling: tile bounds for %s: %w", sp.Vars[k], err)
		}
		space1, err := lin.NewSpace(sp.Params, []string{tName(sp.Vars[k])})
		if err != nil {
			return err
		}
		sys1, err := elim.Project(space1)
		if err != nil {
			return fmt.Errorf("tiling: tile bounds projection for %s: %w", sp.Vars[k], err)
		}
		nest, err := loopgen.Build(sys1, []string{tName(sp.Vars[k])}, fm.Options{Prune: fm.PruneSimplex})
		if err != nil {
			return fmt.Errorf("tiling: tile bounds nest for %s: %w", sp.Vars[k], err)
		}
		tl.dimNests[k] = nest
	}
	return nil
}

// TileBounds returns the per-dimension bounding box [lo_k, hi_k] of the
// tile space for the given parameters (lo_k > hi_k when the space is
// empty in that dimension).
func (tl *Tiling) TileBounds(params []int64) (lo, hi []int64) {
	d := len(tl.Spec.Vars)
	box := make([]int64, 2*d)
	lo, hi = box[:d:d], box[d:]
	var small [8]int64
	vals := small[:0]
	vals = append(append(vals, params...), 0)
	for k := 0; k < d; k++ {
		lo[k], hi[k] = tl.dimNests[k].Bounds(0, vals)
	}
	return lo, hi
}

// PackInterior copies the cells of tile dependence dep's slab box over
// the declared parameter bounds from the tile buffer into out (length
// InteriorEdgeSize[dep]), in the shared pack/unpack order. A run packs
// its own box: RowPlan.PackInterior.
func (tl *Tiling) PackInterior(dep int, buf, out []float64) {
	packSpans(tl.interiorSlab[dep], buf, out[:0])
}

// UnpackInterior writes an edge packed by PackInterior into the
// consumer's ghost shell.
func (tl *Tiling) UnpackInterior(dep int, buf, data []float64) {
	unpackSpans(tl.interiorSlab[dep], tl.TileDeps[dep].Shift, buf, data)
}

// bindSlabs evaluates the templates' reach at the plan's parameters
// into the run's slab boxes, the pack nests' bounds. A run whose boxes
// are the tiling's shares its spans and sizes, allocating nothing.
func (p *RowPlan) bindSlabs(params []int64) {
	tl := p.tl
	d := len(tl.Spec.Vars)
	p.edgeSize, p.slabs = tl.InteriorEdgeSize, tl.interiorSlab
	var small [32]int64
	scratch := small[:]
	if 4*d > len(small) {
		scratch = make([]int64, 4*d)
	}
	box, lo, hi := scratch[:2*d], scratch[2*d:3*d], scratch[3*d:4*d]
	for k := range lo {
		lo[k], hi[k] = paramsAt(tl.reachLo[k], params), paramsAt(tl.reachHi[k], params)
	}
	shared := true
	for j := range tl.TileDeps {
		for k, o := range tl.TileDeps[j].Offset {
			w := tl.Widths[k]
			box[k], box[d+k] = tl.cutToTile(k, lo[k]-o*w, w-1+hi[k]-o*w)
		}
		if slices.Equal(box, tl.slabBox[j]) {
			continue
		}
		if shared {
			p.edgeSize, p.slabs, shared = slices.Clone(p.edgeSize), slices.Clone(p.slabs), false
		}
		p.slabs[j], p.edgeSize[j] = tl.slabSpans(box)
	}
}

// InteriorEdgeSize returns the cell count of tile dependence dep's slab
// at the plan's parameters: an interior producer's exact edge size along
// dep, and an upper bound on every producer's. It is at most the
// tiling's InteriorEdgeSize[dep].
func (p *RowPlan) InteriorEdgeSize(dep int) int64 { return p.edgeSize[dep] }

// PackInterior copies an interior producer's slab cells for tile
// dependence dep from the tile buffer into out (length
// InteriorEdgeSize(dep)), in the shared pack/unpack order.
func (p *RowPlan) PackInterior(dep int, buf, out []float64) {
	packSpans(p.slabs[dep], buf, out[:0])
}

// UnpackInterior writes a full-slab edge into the consumer's ghost
// shell. It is valid for any edge whose cell count equals
// InteriorEdgeSize(dep): a slab with the full count is necessarily the
// full box, and both pack orders (full slab and PackNest) scan it
// identically.
func (p *RowPlan) UnpackInterior(dep int, buf, data []float64) {
	unpackSpans(p.slabs[dep], p.tl.TileDeps[dep].Shift, buf, data)
}

// packSpans appends a slab's cells of buf to out, span by span. A span
// of one element is appended and a longer one copied: the cut-over is
// one element. memmove's call costs more than one move (lcs2's left
// slab is 32 one-element spans, bandit2's lowest-dimension slab 216),
// but from four elements up (knap's spans of 4 and 8, bandit2's of 6)
// element loops measured slower than copy (docs/PERF.md "Pack and
// unpack").
func packSpans(sp []int64, buf, out []float64) []float64 {
	for k := 0; k < len(sp); k += 2 {
		if sp[k+1]-sp[k] == 1 {
			out = append(out, buf[sp[k]])
			continue
		}
		out = append(out, buf[sp[k]:sp[k+1]]...)
	}
	return out
}

// unpackSpans writes data over a slab's spans of buf moved by shift,
// one-element spans by a single move as in packSpans.
func unpackSpans(sp []int64, shift int64, buf, data []float64) {
	for k, idx := 0, 0; k < len(sp); k += 2 {
		if sp[k+1]-sp[k] == 1 {
			buf[sp[k]+shift] = data[idx]
			idx++
			continue
		}
		idx += copy(buf[sp[k]+shift:sp[k+1]+shift], data[idx:])
	}
}

// TileProbe is reusable allocation-free scratch for the per-tile
// polytope queries of the runtime hot path (membership, dependence
// count, interior and core classification). A probe is bound to one
// parameter vector and must not be shared between goroutines.
//
// Binding folds the parameters into TileSys, InteriorSys and CoreSys and
// proves (as BindRows does, see rows.go) that no form can overflow at a
// tile inside the tile space's bounding box, so a query is a box test
// plus plain dot products. Every query tests the box first, so binding
// keeps only the forms that can fail inside it (pruneForms): bandit2's
// 20 TileSys rows leave 1. When the proof fails the queries evaluate
// the systems with checked arithmetic instead. BindRows binds a plan's
// probe once; each goroutine takes its own copy (RowPlan.NewProbe), which
// shares the folded forms and owns its scratch.
type TileProbe struct {
	tl *Tiling
	// Folded systems and the bounding box, read-only and shared by
	// copies; folded is false when the overflow proof failed.
	folded                bool
	space, interior, core []affine
	lo, hi                []int64
	params                []int64
	vals                  []int64 // (params | t) scratch for the checked path, params prefilled
	nb                    []int64 // neighbour-tile scratch
	evals                 int64   // system evaluations so far (Evals)
}

// NewProbe creates a probe for the given parameters.
func (tl *Tiling) NewProbe(params []int64) *TileProbe { return tl.BindRows(params).NewProbe() }

// copy returns a probe sharing pr's binding, with its own scratch and
// evaluation count.
func (pr *TileProbe) copy() *TileProbe {
	c := *pr
	np, d := len(pr.params), len(pr.lo)
	scratch := make([]int64, np+2*d)
	c.vals, c.nb, c.evals = scratch[:np+d:np+d], scratch[np+d:], 0
	copy(c.vals, pr.params)
	return &c
}

// Evals returns how many system evaluations the probe has made: one per
// InSpace, Interior or Core query, one per neighbour of a DepCount. It
// is the per-tile toll the runtime's tests hold to one per core tile.
func (pr *TileProbe) Evals() int64 { return pr.evals }

// contains reports whether t satisfies the folded system forms (sys is
// the same system unfolded, for the checked path). A tile outside the
// bounding box is in neither the tile space nor its interior.
func (pr *TileProbe) contains(forms []affine, sys *lin.System, t []int64) bool {
	pr.evals++
	if !pr.folded {
		copy(pr.vals[len(pr.params):], t)
		return sys.Contains(pr.vals)
	}
	for k, v := range t {
		if v < pr.lo[k] || v > pr.hi[k] {
			return false
		}
	}
	for i := range forms {
		v := forms[i].k
		for k, c := range forms[i].tc {
			v += c * t[k]
		}
		if v < 0 {
			return false
		}
	}
	return true
}

// pruneForms drops in place the forms of fs that cannot fail in the box
// lo..hi and returns the rest: every form whose least value over the box
// is >= 0, and every form that is >= another kept form over the whole
// box (of forms equal over the box, the first is kept). A tile in the
// box satisfies fs exactly when it satisfies the rest.
func pruneForms(fs []affine, lo, hi []int64) []affine {
	n := 0
	for i := range fs {
		if m, ok := boxMin(&fs[i], nil, lo, hi); !ok || m < 0 {
			fs[n] = fs[i]
			n++
		}
	}
	fs = fs[:n]
	// A form is dropped when a kept form (fs[:n]) or a later one lies
	// below it everywhere in the box, the later one strictly somewhere.
	// The relation is transitive, so every dropped form has a kept one
	// below it.
	n = 0
	for i := range fs {
		below := func(j int) bool {
			m, ok := boxMin(&fs[i], &fs[j], lo, hi)
			return ok && m >= 0
		}
		drop := false
		for j := 0; j < n && !drop; j++ {
			drop = below(j)
		}
		for j := i + 1; j < len(fs) && !drop; j++ {
			if below(j) {
				m, ok := boxMin(&fs[j], &fs[i], lo, hi)
				drop = !ok || m < 0
			}
		}
		if !drop {
			fs[n] = fs[i]
			n++
		}
	}
	return fs[:n]
}

// boxMin returns the least value of a − b (of a, when b is nil) over the
// tile box lo..hi; ok is false when that could leave int64.
func boxMin(a, b *affine, lo, hi []int64) (m int64, ok bool) {
	m, ok = a.k, true
	if b != nil {
		m, ok = ints.AddOK(m, -b.k)
	}
	for k, c := range a.tc {
		okc := true
		if b != nil {
			c, okc = ints.AddOK(c, -b.tc[k])
		}
		t := lo[k]
		if c < 0 {
			t = hi[k]
		}
		v, okv := ints.MulOK(c, t)
		var okm bool
		m, okm = ints.AddOK(m, v)
		ok = ok && okc && okv && okm
	}
	return m, ok
}

// interiorRun returns the tiles a..b (a > b when none) of the row of
// tiles t whose innermost coordinate t[inner] runs over lo..hi that are
// interior: Interior holds at exactly those. Each form is affine along
// the row, so the run is one interval. It reads the folded forms only.
func (pr *TileProbe) interiorRun(t []int64, inner int, lo, hi int64) (a, b int64) {
	for k, v := range t {
		if k != inner && (v < pr.lo[k] || v > pr.hi[k]) {
			return 1, 0
		}
	}
	a, b = max(lo, pr.lo[inner]), min(hi, pr.hi[inner])
	for i := range pr.interior {
		f := &pr.interior[i]
		r := f.k
		for k, c := range f.tc {
			if k != inner {
				r += c * t[k]
			}
		}
		a, b = clip(a, b, r, f.tc[inner])
	}
	return a, b
}

// InSpace reports whether tile t exists, without allocating.
func (pr *TileProbe) InSpace(t []int64) bool {
	return pr.contains(pr.space, pr.tl.TileSys, t)
}

// Interior reports whether tile t's full dependence shell lies inside
// the iteration space.
func (pr *TileProbe) Interior(t []int64) bool {
	return pr.contains(pr.interior, pr.tl.InteriorSys, t)
}

// Core reports whether tile t is interior and every neighbour the
// runtime would ask about exists: each producer t + off_j and each
// consumer t − off_j, for every tile dependence j. One evaluation
// answers what Interior, DepCount and an InSpace per consumer answer
// separately.
func (pr *TileProbe) Core(t []int64) bool {
	return pr.contains(pr.core, pr.tl.CoreSys, t)
}

// DepCount counts the tile dependencies of t that exist in the tile
// space, without allocating.
func (pr *TileProbe) DepCount(t []int64) int {
	n := 0
	for j := range pr.tl.TileDeps {
		off := pr.tl.TileDeps[j].Offset
		for k := range t {
			pr.nb[k] = t[k] + off[k]
		}
		if pr.InSpace(pr.nb) {
			n++
		}
	}
	return n
}

// hasProducer reports whether some tile dependence of t has its producer
// in the tile space, stopping at the first that does.
func (pr *TileProbe) hasProducer(t []int64) bool {
	for j := range pr.tl.TileDeps {
		off := pr.tl.TileDeps[j].Offset
		for k := range t {
			pr.nb[k] = t[k] + off[k]
		}
		if pr.InSpace(pr.nb) {
			return true
		}
	}
	return false
}
