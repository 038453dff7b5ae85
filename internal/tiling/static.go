package tiling

// Static wavefront classification for the hybrid scheduler. A tile's
// wavefront level orders tiles so that every tile-to-tile dependence
// points from a strictly smaller level to a larger one: level offsets
// follow the execution direction per dimension, so a producer tile
// (which sits one step against the execution direction in at least one
// dimension) always has a smaller level than its consumer. Runtimes can
// therefore release whole level "diagonals" at once — a single counter
// per level replaces per-tile dependence bookkeeping for tiles whose
// inputs are all locally produced.

// TileLevel returns the wavefront level of tile t (Spec.Vars order):
// the sum of the tile indices, each negated in dimensions that execute
// downward. For every tile dependence the producer's level is strictly
// smaller than the consumer's, so levels are a valid topological order
// of the tile dependence DAG.
func (tl *Tiling) TileLevel(t []int64) int64 {
	var l int64
	for k, d := range tl.ExecDirs {
		if d >= 0 {
			l += t[k]
		} else {
			l -= t[k]
		}
	}
	return l
}

// PriorityKey writes tile t's Figure 5 priority key into dst (length
// len(t); nil allocates) and returns it: the coordinates arranged by
// KeyDims and oriented by KeyDirs, so that the lexicographically smaller
// key executes first. The components sum to -TileLevel(t).
func (tl *Tiling) PriorityKey(t, dst []int64) []int64 {
	if dst == nil {
		dst = make([]int64, len(tl.KeyDims))
	}
	for i, k := range tl.KeyDims {
		dst[i] = tl.KeyDirs[i] * t[k]
	}
	return dst
}

// TileLevelBounds returns the inclusive range [lo, hi] that TileLevel
// can take over the tile space at the given parameter values, by
// interval arithmetic over the per-dimension tile bounds. The range may
// overestimate at the ends for non-rectangular spaces; it is only a
// sizing bound, every actual tile level falls inside it.
func (tl *Tiling) TileLevelBounds(params []int64) (lo, hi int64) {
	blo, bhi := tl.TileBounds(params)
	for k, d := range tl.ExecDirs {
		if d >= 0 {
			lo += blo[k]
			hi += bhi[k]
		} else {
			lo -= bhi[k]
			hi -= blo[k]
		}
	}
	return lo, hi
}

// ForEachTileLevel scans the tile space in loop order like ForEachTile,
// additionally reporting each tile's wavefront level and whether the
// tile is interior (its whole rectangle lies inside the iteration space
// with every template dependence valid — the same classification the
// dense fast path uses). The scan stops early when visit returns false.
// The slice passed to visit is reused between calls.
func (tl *Tiling) ForEachTileLevel(params []int64, visit func(t []int64, level int64, interior bool) bool) {
	probe := tl.NewProbe(params)
	tl.ForEachTile(params, func(t []int64) bool {
		return visit(t, tl.TileLevel(t), probe.Interior(t))
	})
}
