package tiling

// Tile orders for the runtime's ready queue (Section V-B). A tile's
// wavefront level orders tiles so that every tile-to-tile dependence
// points from a strictly smaller level to a larger one: level offsets
// follow the execution direction per dimension, so a producer tile
// (which sits one step against the execution direction in at least one
// dimension) always has a smaller level than its consumer. The Figure 5
// priority key refines that order column-major.

// TileLevel returns the wavefront level of tile t (Spec.Vars order):
// the sum of the tile indices, each negated in dimensions that execute
// downward. For every tile dependence the producer's level is strictly
// smaller than the consumer's, so levels are a valid topological order
// of the tile dependence DAG — the Figure 4b level-set policy.
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
