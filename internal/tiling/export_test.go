package tiling

// Unfold puts the probe on its checked path, as a failed overflow proof
// would, so tests can diff the two paths on ordinary parameters.
func (pr *TileProbe) Unfold() { pr.folded = false }

// SetShapeBudget replaces the plan's shape budget (shapeBudget rows),
// before Slabs fills its table.
func (p *RowPlan) SetShapeBudget(rows int64) { p.budget = rows }

// Index returns the current row's local indices in Spec.Vars order,
// the innermost one i.
func (rw *RowWalker) Index(i int64) []int64 {
	idx := make([]int64, len(rw.il))
	for l, k := range rw.plan.tl.orderIdx {
		idx[k] = rw.il[l]
	}
	idx[rw.plan.tl.orderIdx[len(rw.il)-1]] = i
	return idx
}

// Ranged reports whether a valid range dependence's length can vary
// along the run.
func (rw *RowWalker) Ranged() bool { return len(rw.active) > 0 }

// CellLens fills lens for the run's valid range dependences at
// innermost local index i.
func (rw *RowWalker) CellLens(i int64, lens []int64) {
	cellLens(rw.active, rw.clamps, rw.base, i, lens)
}

// LenRun fills lens at innermost local index i, like CellLens, and
// returns how many of the cnt cells from i onwards in execution order
// share those lengths.
func (rw *RowWalker) LenRun(i, cnt int64, lens []int64) int64 {
	return lenRun(rw.active, rw.clamps, rw.base, i, cnt, int64(rw.cellDirs[len(rw.cellDirs)-1]), lens)
}

// FormCounts returns how many folded forms the probe tests per query
// of InSpace, Interior and Core once its tile box holds.
func (pr *TileProbe) FormCounts() (space, interior, core int) {
	return len(pr.space), len(pr.interior), len(pr.core)
}

// InteriorRun exposes interiorRun.
func (pr *TileProbe) InteriorRun(t []int64, inner int, lo, hi int64) (a, b int64) {
	return pr.interiorRun(t, inner, lo, hi)
}
