// Package tiling performs the core analyses of the program generator
// (Sections IV-E through IV-L of the paper): it extends the iteration
// space with tile and local indices (x_k = i_k + w_k * t_k), derives the
// tile space and the per-tile local iteration space with Fourier–Motzkin
// elimination, determines tile-to-tile dependencies from the template
// vectors, builds template-recurrence validity functions, lays out tile
// memory with ghost-cell shells and constant-offset mapping functions,
// and constructs the pack/unpack index sets for every tile edge.
package tiling

import (
	"errors"
	"fmt"
	"slices"

	"dpgen/internal/fm"
	"dpgen/internal/ints"
	"dpgen/internal/lin"
	"dpgen/internal/loopgen"
	"dpgen/internal/spec"
)

// TileDep is a dependence between tiles: the consumer tile t reads data
// produced by tile t + Offset. PackNest scans the producer-local cells of
// the edge slab, in an order shared exactly by packing and unpacking
// (Section IV-I).
type TileDep struct {
	// Offset has one entry per variable, each in {-1, 0, +1}.
	Offset []int64
	// PackNest scans the producer's slab cells; its space treats the
	// parameters and the producer's tile indices as parameters and the
	// local indices as loop variables. The slab is the box of the cells
	// the consumer's templates can reach at the run's parameters (see
	// buildTileDeps), cut by the producer's local space.
	PackNest *loopgen.Nest
	// Shift is Σ_k Offset_k·w_k·stride_k: added to a producer-local
	// buffer index of a slab cell, it gives the cell's index in the
	// consumer's ghost shell.
	Shift int64
}

// Tiling is the complete generation-time analysis of a spec.
type Tiling struct {
	Spec *spec.Spec

	// Per-variable geometry, indexed like Spec.Vars.
	Widths   []int64 // tile width w_k
	GhostLo  []int64 // ghost shell below (max negative template reach)
	GhostHi  []int64 // ghost shell above (max positive template reach)
	Alloc    []int64 // allocated extent: GhostLo + Widths + GhostHi
	Strides  []int64 // memory stride per variable (innermost loop var = 1)
	BaseOff  int64   // sum GhostLo_k * Strides_k, the offset of local origin
	AllocLen int64   // product of Alloc: per-tile buffer length

	// DepLocOff[j] is the constant part of template dependence j's
	// memory offset relative to the current location (the mapping
	// functions of IV-H). For variable-distance templates the full
	// offset is parameter-dependent: runtimes use DepLocOffAt.
	DepLocOff []int64

	// DepLocExpr[j] and DepStrideExpr[j] are the base and range-step
	// memory offsets of dependence j as parameter-only expressions over
	// the spec space (see extended.go). LenExprs[j] is range dependence
	// j's length form (parameters and loop variables); RangeChecks[j]
	// its per-constraint footprint prefix checks. LenMax[j] bounds the
	// length over the whole space and parameter bounds.
	DepLocExpr    []lin.Expr
	DepStrideExpr []lin.Expr
	LenExprs      []lin.Expr
	RangeChecks   [][]RangeCheck
	LenMax        []int64

	// Validity[j] lists the iteration-space constraints that template
	// dependence j can violate, pre-shifted by the template vector
	// (Section IV-G): dependence j is valid at x iff every listed
	// inequality holds at (params, x).
	Validity [][]lin.Ineq

	// TileSys is the tile space over (params | t) (Section IV-E).
	TileSys *lin.System
	// TileNest scans the tile space in loop order.
	TileNest *loopgen.Nest
	// LocalNest scans a tile's cells; its space treats params and tile
	// indices as parameters and local indices i as loop variables.
	LocalNest *loopgen.Nest

	// TileDeps are the distinct tile-to-tile dependence offsets
	// (Section IV-F) whose edge slab is non-empty at some admissible
	// parameter vector, in a deterministic order.
	TileDeps []TileDep

	// InteriorSys is the tile space shrunk by the dependence shell: a
	// tile satisfying it has every cell of its full rectangle inside the
	// iteration space and every template dependence valid at every cell,
	// so the runtime may use the dense fast path (see fastpath.go).
	InteriorSys *lin.System
	// CoreSys is InteriorSys conjoined with TileSys tightened to hold at
	// every neighbour: a tile satisfying it is interior and each producer
	// t + Offset_j and consumer t − Offset_j exists (see fastpath.go).
	CoreSys *lin.System
	// Dense is the precompiled interior-tile cell nest, in loop order.
	Dense []DenseLevel
	// InteriorEdgeSize[j] is the cell count of tile dependence j's slab
	// box over the declared parameter bounds: an upper bound on every
	// edge along j, and an interior producer's exact edge size at the
	// parameters that reach farthest (RowPlan.InteriorEdgeSize is a
	// run's exact size).
	InteriorEdgeSize []int64

	// ExecDirs gives the cell iteration direction per variable: -1 when
	// templates are positive in that dimension (loops run from the upper
	// bound down, Fig 3), +1 otherwise. Indexed like Spec.Vars.
	ExecDirs []int

	// KeyDims and KeyDirs define the ready-tile priority key of Figure 5
	// (PriorityKey): component i is KeyDirs[i] * t[KeyDims[i]]. KeyDims
	// lists the load-balancing dimensions first (priority order), then
	// the remaining dimensions in loop order. KeyDirs orients each
	// component so that tiles further along the execution direction
	// sort first (+1 where execution descends, -1 where it ascends):
	// those are the tiles whose edges feed neighbouring nodes ("tiles
	// that cause communication execute more quickly", Section V-B),
	// which keeps the cross-node pipeline fed.
	KeyDims []int
	KeyDirs []int64

	tileSpace    *lin.Space      // (params | t...) in Vars order
	localSpace   *lin.Space      // (params, t... | i...) — params+tiles as parameters
	localSys     *lin.System     // the local system LocalNest and the pack nests scan
	orderIdx     []int           // loop order as indexes into Spec.Vars
	lb           []int           // LBIndices
	rows         rowTemplate     // what BindRows binds
	depOffs      [][]int64       // DepOffsets
	interiorSlab [][]int64       // full edge slabs per tile dep, as [start, end) spans
	reachLo      []lin.Expr      // per dimension, the templates' least reach (parameters only; templateReach)
	reachHi      []lin.Expr      // and their greatest
	slabBox      [][]int64       // per tile dep, interiorSlab's first local index, then its count, per dimension
	dimNests     []*loopgen.Nest // per-dimension tile bounds (integer keys)
}

// tName and iName build the internal tile/local index names. The "$"
// avoids collisions: it cannot appear in user identifiers.
func tName(v string) string { return "t$" + v }
func iName(v string) string { return "i$" + v }

// New analyzes the spec and builds the full tiling. The spec must
// validate and its iteration space must be bounded in every variable
// given the parameters.
func New(sp *spec.Spec) (*Tiling, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	d := len(sp.Vars)
	tl := &Tiling{Spec: sp, Widths: sp.Widths()}
	// Ghost shells are sized from the dependence footprint hull over
	// the declared parameter bounds: for range templates the footprint
	// extends to LenMax-1 steps along the direction vector.
	lmax, err := tl.depLenMaxima()
	if err != nil {
		return nil, err
	}
	tl.LenMax = lmax
	hull, err := sp.TemplateHull(lmax)
	if err != nil {
		return nil, err
	}
	tl.GhostLo, tl.GhostHi = hull.Lo, hull.Hi

	// Loop order as variable indexes.
	order := sp.Order()
	tl.orderIdx = make([]int, d)
	for i, v := range order {
		tl.orderIdx[i] = sp.VarIndex(v)
	}

	// Memory layout: the innermost loop variable gets stride 1.
	tl.Alloc = make([]int64, d)
	for k := 0; k < d; k++ {
		tl.Alloc[k] = tl.GhostLo[k] + tl.Widths[k] + tl.GhostHi[k]
	}
	tl.Strides = make([]int64, d)
	stride := int64(1)
	for i := d - 1; i >= 0; i-- {
		k := tl.orderIdx[i]
		tl.Strides[k] = stride
		stride = ints.MulChecked(stride, tl.Alloc[k])
	}
	tl.AllocLen = stride
	for k := 0; k < d; k++ {
		tl.BaseOff += tl.GhostLo[k] * tl.Strides[k]
	}
	tl.DepLocOff = make([]int64, len(sp.Deps))
	for j, dep := range sp.Deps {
		var off int64
		for k, r := range dep.Vec {
			off += r * tl.Strides[k]
		}
		tl.DepLocOff[j] = off
	}

	// Execution direction: positive template reach means dependencies sit
	// at larger coordinates, so cells iterate downward in that dimension.
	tl.ExecDirs = make([]int, d)
	for k := 0; k < d; k++ {
		if tl.GhostHi[k] > 0 {
			tl.ExecDirs[k] = -1
		} else {
			tl.ExecDirs[k] = 1
		}
	}
	tl.lb = make([]int, len(sp.Balance()))
	for i, v := range sp.Balance() {
		tl.lb[i] = sp.VarIndex(v)
	}
	tl.KeyDims = slices.Clone(tl.lb)
	for _, k := range tl.orderIdx {
		if !slices.Contains(tl.KeyDims, k) {
			tl.KeyDims = append(tl.KeyDims, k)
		}
	}
	tl.KeyDirs = make([]int64, d)
	for i, k := range tl.KeyDims {
		tl.KeyDirs[i] = int64(-tl.ExecDirs[k])
	}

	if err := tl.buildSpaces(); err != nil {
		return nil, err
	}
	if err := tl.buildValidity(); err != nil {
		return nil, err
	}
	tl.buildDepGeometry()
	if err := tl.buildTileDeps(hull); err != nil {
		return nil, err
	}
	if err := tl.buildFastPath(); err != nil {
		return nil, err
	}
	tl.depOffs = make([][]int64, len(tl.TileDeps))
	for j := range tl.TileDeps {
		tl.depOffs[j] = tl.TileDeps[j].Offset
	}
	tl.layoutRows()
	return tl, nil
}

// extended constructs the extended system over (params | x, t, i) with
// x_k substituted by i_k + w_k*t_k and the local ranges 0 <= i_k < w_k
// added (Section IV-E). All x coefficients are zero in the result.
func (tl *Tiling) extended() (*lin.System, error) {
	sp := tl.Spec
	d := len(sp.Vars)
	tNames := make([]string, d)
	iNames := make([]string, d)
	for k, v := range sp.Vars {
		tNames[k], iNames[k] = tName(v), iName(v)
	}
	extSpace, err := lin.NewSpace(sp.Params,
		append(append(append([]string{}, sp.Vars...), tNames...), iNames...))
	if err != nil {
		return nil, err
	}
	ext := sp.System().Lift(extSpace)
	for k, v := range sp.Vars {
		// x_k := i_k + w_k * t_k
		rep := lin.Var(extSpace, iNames[k]).Add(lin.Term(extSpace, tl.Widths[k], tNames[k]))
		ext = ext.Subst(v, rep)
		// 0 <= i_k <= w_k - 1
		ext.AddGE(lin.Var(extSpace, iNames[k]), lin.Zero(extSpace))
		ext.AddLE(lin.Var(extSpace, iNames[k]), lin.Const(extSpace, tl.Widths[k]-1))
	}
	return ext, nil
}

// buildSpaces derives the tile space and the local iteration space from
// the extended system.
func (tl *Tiling) buildSpaces() error {
	sp := tl.Spec
	d := len(sp.Vars)
	tNames := make([]string, d)
	iNames := make([]string, d)
	for k, v := range sp.Vars {
		tNames[k], iNames[k] = tName(v), iName(v)
	}
	ext, err := tl.extended()
	if err != nil {
		return err
	}

	// Tile space: eliminate local indices, project onto (params | t).
	elim, err := fm.EliminateAll(ext, iNames, fm.Options{})
	if err != nil {
		return fmt.Errorf("tiling: tile space: %w", err)
	}
	tl.tileSpace, err = lin.NewSpace(sp.Params, tNames)
	if err != nil {
		return err
	}
	tl.TileSys, err = elim.Project(tl.tileSpace)
	if err != nil {
		return fmt.Errorf("tiling: tile space projection: %w", err)
	}
	tOrder := make([]string, d)
	for i, k := range tl.orderIdx {
		tOrder[i] = tNames[k]
	}
	tl.TileNest, err = loopgen.Build(tl.TileSys, tOrder, fm.Options{Prune: fm.PruneSimplex})
	if err != nil {
		return fmt.Errorf("tiling: tile nest: %w", err)
	}

	// Local iteration space: params and tile indices become parameters.
	tl.localSpace, err = lin.NewSpace(append(append([]string{}, sp.Params...), tNames...), iNames)
	if err != nil {
		return err
	}
	local, err := ext.Project(tl.localSpace)
	if err != nil {
		return fmt.Errorf("tiling: local projection: %w", err)
	}
	tl.localSys = local.Clone()
	iOrder := make([]string, d)
	for i, k := range tl.orderIdx {
		iOrder[i] = iNames[k]
	}
	tl.LocalNest, err = loopgen.Build(local, iOrder, fm.Options{Prune: fm.PruneSimplex})
	if err != nil {
		return fmt.Errorf("tiling: local nest: %w", err)
	}
	return nil
}

// buildValidity creates the template-recurrence validity checks
// (Section IV-G): for each point dependence r and each original
// constraint a.x + b.p + c >= 0 whose shift a.r can be negative,
// accessing x + r can violate the constraint, so the shifted inequality
// a.x + b.p + c + a.r >= 0 must be checked at runtime. With
// variable-distance offsets the shift is a parameter-affine expression;
// the constraint is included whenever the shift can be negative over
// the declared parameter bounds. Range templates use RangeChecks (see
// extended.go) instead.
func (tl *Tiling) buildValidity() error {
	sp := tl.Spec
	tl.Validity = make([][]lin.Ineq, len(sp.Deps))
	for j := range sp.Deps {
		if sp.Deps[j].IsRange() {
			continue
		}
		for _, q := range sp.Constraints {
			shift := lin.Zero(sp.Space())
			for k, v := range sp.Vars {
				if a := q.Coeff(v); a != 0 {
					shift = shift.Add(sp.BaseExpr(j, k).Scale(a))
				}
			}
			include := false
			if shift.IsConst() {
				include = shift.K < 0
			} else {
				lo, _, err := sp.ExprHull(shift)
				if err != nil {
					return fmt.Errorf("tiling: dependence %q validity: %w", sp.Deps[j].Name, err)
				}
				include = lo < 0
			}
			if include {
				tl.Validity[j] = append(tl.Validity[j], lin.Ineq{Expr: q.Expr.Add(shift)})
			}
		}
	}
	return nil
}

// buildTileDeps enumerates the distinct tile-offset vectors induced by
// the template dependencies (Section IV-F) and builds each edge's
// pack/unpack scan nest (Section IV-I). A footprint whose reach exceeds
// the tile width crosses more than one tile boundary, so the
// per-dimension crossing magnitudes range up to ceil(reach/width)
// rather than one.
func (tl *Tiling) buildTileDeps(hull *spec.Hull) error {
	sp := tl.Spec
	d := len(sp.Vars)
	seen := map[string]bool{}
	var offsets [][]int64
	for j := range sp.Deps {
		// Per-dimension candidate crossings from the footprint hull.
		choice := tl.depChoices(hull, j)
		cur := make([]int64, d)
		var rec func(int)
		rec = func(k int) {
			if k == d {
				zero := true
				for _, c := range cur {
					if c != 0 {
						zero = false
						break
					}
				}
				if zero {
					return
				}
				key := fmt.Sprint(cur)
				if !seen[key] {
					seen[key] = true
					offsets = append(offsets, append([]int64(nil), cur...))
				}
				return
			}
			for _, c := range choice[k] {
				cur[k] = c
				rec(k + 1)
			}
			cur[k] = 0
		}
		rec(0)
	}

	if len(offsets) > maxTileDeps {
		return fmt.Errorf("tiling: %d tile-to-tile crossings exceed the limit of %d; increase the tile widths relative to the template reach",
			len(offsets), maxTileDeps)
	}

	// Deterministic order: lexicographic.
	sortOffsets(offsets)

	// The consumer t − o reads, through a template reaching r, the
	// producer-local index i_k + r_k − o_k·w_k along k from its own local
	// i_k in [0, w_k − 1]: the slab along k is
	// [lo_k − o_k·w_k, w_k − 1 + hi_k − o_k·w_k] for the templates' reach
	// [lo_k, hi_k], which the tile cuts to [0, w_k − 1].
	lo, hi, err := tl.templateReach(hull)
	if err != nil {
		return fmt.Errorf("tiling: template reach: %w", err)
	}
	tl.reachLo, tl.reachHi = lo, hi
	// Per dimension, each reach's least and greatest value over the
	// declared parameter bounds, and the slab's two inequalities at
	// offset 0 over the local space: i_k − lo_k >= 0 and
	// w_k − 1 + hi_k − i_k >= 0.
	loR, hiR := make([][2]int64, d), make([][2]int64, d)
	above, below := make([]lin.Expr, d), make([]lin.Expr, d)
	for k, v := range sp.Vars {
		if loR[k][0], loR[k][1], err = tl.paramRange(lo[k]); err != nil {
			return err
		}
		if hiR[k][0], hiR[k][1], err = tl.paramRange(hi[k]); err != nil {
			return err
		}
		in := lin.Var(tl.localSpace, iName(v))
		above[k] = in.Sub(lo[k].Lift(tl.localSpace))
		below[k] = hi[k].Lift(tl.localSpace).Sub(in).AddConst(tl.Widths[k] - 1)
	}
	for _, off := range offsets {
		box := make([]int64, 2*d)
		var shift int64
		local := tl.localSys.Clone()
		for k, o := range off {
			w := tl.Widths[k]
			shift += o * w * tl.Strides[k]
			// A bound no admissible parameter vector lets cut the tile
			// is left out of the nest.
			if loR[k][1]-o*w > 0 {
				local.Add(lin.Ineq{Expr: above[k].AddConst(o * w)})
			}
			if hiR[k][0]-o*w < 0 {
				local.Add(lin.Ineq{Expr: below[k].AddConst(-o * w)})
			}
			box[k], box[d+k] = tl.cutToTile(k, loR[k][0]-o*w, w-1+hiR[k][1]-o*w)
		}
		nest, err := tl.buildPackNest(off, local)
		if err != nil {
			return err
		}
		if nest == nil {
			continue // no consumer reads across off at any admissible parameters
		}
		tl.TileDeps = append(tl.TileDeps, TileDep{Offset: off, PackNest: nest, Shift: shift})
		tl.slabBox = append(tl.slabBox, box)
	}
	return nil
}

// buildPackNest constructs the scan nest over the producer-local slab of
// the edge with the given offset: local, the producer's local space
// intersected with the slab, so partial boundary tiles pack exactly
// their valid band. It returns nil when the slab is empty at every
// admissible parameter vector: such an edge carries nothing and is no
// tile dependence.
func (tl *Tiling) buildPackNest(off []int64, local *lin.System) (*loopgen.Nest, error) {
	sp := tl.Spec
	d := len(sp.Vars)
	iOrder := make([]string, d)
	for i, k := range tl.orderIdx {
		iOrder[i] = iName(sp.Vars[k])
	}
	nest, err := loopgen.Build(local, iOrder, fm.Options{Prune: fm.PruneSimplex})
	if errors.Is(err, fm.ErrInfeasible) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tiling: pack nest for offset %v: %w", off, err)
	}
	return nest, nil
}

func sortOffsets(offs [][]int64) {
	less := func(a, b []int64) bool {
		for i := range a {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	}
	// Insertion sort: offset lists are tiny.
	for i := 1; i < len(offs); i++ {
		for j := i; j > 0 && less(offs[j], offs[j-1]); j-- {
			offs[j], offs[j-1] = offs[j-1], offs[j]
		}
	}
}
