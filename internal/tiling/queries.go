package tiling

import (
	"dpgen/internal/ints"
)

// Loc returns the buffer index of the local cell i (in Vars order,
// components in [-GhostLo_k, Widths_k+GhostHi_k-1]).
func (tl *Tiling) Loc(i []int64) int64 {
	off := tl.BaseOff
	for k, v := range i {
		off += v * tl.Strides[k]
	}
	return off
}

// TileOf returns the tile index containing the global point x, and the
// local coordinates within that tile.
func (tl *Tiling) TileOf(x []int64) (t, local []int64) {
	t = make([]int64, len(x))
	local = make([]int64, len(x))
	for k, v := range x {
		t[k] = ints.FloorDiv(v, tl.Widths[k])
		local[k] = v - t[k]*tl.Widths[k]
	}
	return t, local
}

// GlobalOf returns the global coordinates of local cell i in tile t.
func (tl *Tiling) GlobalOf(t, i []int64) []int64 {
	x := make([]int64, len(t))
	for k := range t {
		x[k] = i[k] + tl.Widths[k]*t[k]
	}
	return x
}

// tileVals assembles a (params | t) value vector for the tile space.
func (tl *Tiling) tileVals(params, t []int64) []int64 {
	vals := make([]int64, tl.tileSpace.N())
	copy(vals, params)
	copy(vals[len(params):], t)
	return vals
}

// localParams assembles the parameter vector (params, t) of the local
// nest's space.
func (tl *Tiling) localParams(params, t []int64) []int64 {
	vals := make([]int64, len(params)+len(t))
	copy(vals, params)
	copy(vals[len(params):], t)
	return vals
}

// InTileSpace reports whether tile t exists for the given parameters.
func (tl *Tiling) InTileSpace(params, t []int64) bool {
	return tl.TileSys.Contains(tl.tileVals(params, t))
}

// DepCount returns the number of tile dependencies of t that exist in
// the tile space — the count that must reach zero before t can execute.
func (tl *Tiling) DepCount(params, t []int64) int {
	n := 0
	probe := make([]int64, len(t))
	for _, dep := range tl.TileDeps {
		for k := range t {
			probe[k] = t[k] + dep.Offset[k]
		}
		if tl.InTileSpace(params, probe) {
			n++
		}
	}
	return n
}

// TileCount returns the number of tiles for the given parameters.
func (tl *Tiling) TileCount(params []int64) int64 { return tl.TileNest.Count(params) }

// CellCount returns the number of iteration-space cells in tile t.
func (tl *Tiling) CellCount(params, t []int64) int64 {
	return tl.LocalNest.Count(tl.localParams(params, t))
}

// EdgeSize returns the number of cells in the edge slab that tile t packs
// for tile dependence dep (consumer side: the producer is t).
func (tl *Tiling) EdgeSize(params, t []int64, dep int) int64 {
	return tl.TileDeps[dep].PackNest.Count(tl.localParams(params, t))
}

// ForEachTile enumerates every tile index in loop order. The visited
// slice is in Vars order and must not be retained.
func (tl *Tiling) ForEachTile(params []int64, visit func(t []int64) bool) {
	d := len(tl.Spec.Vars)
	t := make([]int64, d)
	tl.TileNest.Enumerate(params, func(vals []int64) bool {
		copy(t, vals[len(params):])
		return visit(t)
	})
}

// InitialTiles scans the tile space for tiles with no satisfiable
// dependencies (Section IV-K), counting every tile's producers, and
// returns them with the total tile count. It is the exhaustive reference
// for the initial tiles Slabs collects in the runtime's one pass.
func (tl *Tiling) InitialTiles(params []int64) (initial [][]int64, total int64) {
	tl.ForEachTile(params, func(t []int64) bool {
		total++
		if tl.DepCount(params, t) == 0 {
			initial = append(initial, append([]int64(nil), t...))
		}
		return true
	})
	return initial, total
}

// DepValid reports whether template dependence j may be used at global
// point x: every constraint it can violate must hold after shifting
// (Section IV-G). specVals is a scratch (params | x) vector in the spec's
// space, already filled by the caller.
func (tl *Tiling) DepValid(j int, specVals []int64) bool {
	for _, q := range tl.Validity[j] {
		if !q.Holds(specVals) {
			return false
		}
	}
	return true
}

// GoalTile returns the tile containing the spec's goal point and the
// goal's local coordinates.
func (tl *Tiling) GoalTile() (t, local []int64) {
	return tl.TileOf(tl.Spec.GoalPoint())
}

// ForEachCell enumerates the cells of tile t in dependence-respecting
// execution order (loop order with per-dimension ExecDirs directions,
// Fig 3), passing the local coordinate vector (Vars order). Every cell's
// template dependencies are enumerated before the cell itself. The slice
// must not be retained.
func (tl *Tiling) ForEachCell(params, t []int64, visit func(i []int64) bool) {
	d := len(tl.Spec.Vars)
	lp := tl.localParams(params, t)
	i := make([]int64, d)
	dirs := make([]int, d)
	for lvl, k := range tl.orderIdx {
		dirs[lvl] = tl.ExecDirs[k]
	}
	tl.LocalNest.EnumerateDir(lp, dirs, func(vals []int64) bool {
		copy(i, vals[len(lp):])
		return visit(i)
	})
}

// ForEachEdgeCell enumerates the producer-local slab cells of tile
// dependence dep for producer tile t, in the shared pack/unpack order.
func (tl *Tiling) ForEachEdgeCell(params, t []int64, dep int, visit func(i []int64) bool) {
	d := len(tl.Spec.Vars)
	lp := tl.localParams(params, t)
	i := make([]int64, d)
	tl.TileDeps[dep].PackNest.Enumerate(lp, func(vals []int64) bool {
		copy(i, vals[len(lp):])
		return visit(i)
	})
}

// UnpackLoc maps a producer-local slab cell to the consumer's buffer
// index for tile dependence dep: crossing dimensions land in the
// consumer's ghost shell.
func (tl *Tiling) UnpackLoc(dep int, i []int64) int64 {
	return tl.Loc(i) + tl.TileDeps[dep].Shift
}
