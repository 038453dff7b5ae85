package tiling

import (
	"fmt"
	"math"
	"slices"
)

// LBIndices returns the variable indexes of the load-balancing dimensions
// in priority order (lb1 first).
func (tl *Tiling) LBIndices() []int {
	lb := tl.Spec.Balance()
	out := make([]int, len(lb))
	for i, v := range lb {
		out[i] = tl.Spec.VarIndex(v)
	}
	return out
}

// LBCoords extracts the load-balancing coordinates (priority order) from
// a tile index vector (Vars order).
func (tl *Tiling) LBCoords(t []int64, dst []int64) []int64 {
	idx := tl.LBIndices()
	if dst == nil {
		dst = make([]int64, len(idx))
	}
	for i, k := range idx {
		dst[i] = t[k]
	}
	return dst
}

// Slab is one load-balancing cell (Section IV-J): the set of tiles
// sharing load-balancing coordinates LB (priority order). Work is the
// slab's iteration-space cell count — the quantity the paper evaluates
// with its second Ehrhart polynomial — and Tiles its tile count.
type Slab struct {
	LB    []int64
	Work  int64
	Tiles int64
}

// TileKey packs chosen coordinates of a tile into one integer: mixed
// radix over the bounding box of the tile space, the first chosen
// dimension most significant, so keys order tiles lexicographically in
// those dimensions and tiles that differ in one never share a key.
type TileKey struct {
	dims   []int
	lo, hi []int64
	mul    []uint64
	n      uint64 // keys in the bounding box
}

// NewLBKey sizes the key over the load-balancing dimensions (priority
// order): one key per Slab.
func (tl *Tiling) NewLBKey(params []int64) (*TileKey, error) {
	return tl.newKey(params, tl.LBIndices())
}

// NewRestKey sizes the key over the dimensions that are not
// load-balancing (Vars order): with NewLBKey's, it names a tile by its
// slab and its place in the box every slab's tiles lie in.
func (tl *Tiling) NewRestKey(params []int64) (*TileKey, error) {
	lb := tl.LBIndices()
	var dims []int
	for k := range tl.Spec.Vars {
		if !slices.Contains(lb, k) {
			dims = append(dims, k)
		}
	}
	return tl.newKey(params, dims)
}

// NewTileKey sizes the key over every dimension (Vars order): one key
// per tile, the collision-free integer the runtimes index their tile
// tables by.
func (tl *Tiling) NewTileKey(params []int64) (*TileKey, error) {
	dims := make([]int, len(tl.Spec.Vars))
	for k := range dims {
		dims[k] = k
	}
	return tl.newKey(params, dims)
}

// newKey sizes a key over dims for the given parameters. It fails when
// the bounding box holds more points than an int64 counts.
func (tl *Tiling) newKey(params []int64, dims []int) (*TileKey, error) {
	k := &TileKey{dims: dims}
	lo, hi := tl.TileBounds(params)
	n := len(dims)
	k.lo, k.hi, k.mul = make([]int64, n), make([]int64, n), make([]uint64, n)
	m := int64(1)
	for i := n - 1; i >= 0; i-- {
		d := dims[i]
		k.lo[i], k.hi[i], k.mul[i] = lo[d], hi[d], uint64(m)
		if ext := hi[d] - lo[d] + 1; ext > 1 {
			if ext > math.MaxInt64/m {
				return nil, fmt.Errorf("tiling: tile space too large for integer keys (tile bounds %v..%v)", lo, hi)
			}
			m *= ext
		}
	}
	k.n = uint64(m)
	return k, nil
}

// Len returns how many keys the bounding box holds: every key Of returns
// is below it.
func (k *TileKey) Len() uint64 { return k.n }

// Of returns tile t's key (t in Vars order), and false when t lies
// outside the bounding box and so in no slab. It does not allocate.
func (k *TileKey) Of(t []int64) (uint64, bool) {
	var key uint64
	for i, d := range k.dims {
		v := t[d]
		if v < k.lo[i] || v > k.hi[i] {
			return 0, false
		}
		key += uint64(v-k.lo[i]) * k.mul[i]
	}
	return key, true
}

// OfLB returns the key of coordinates lb, given in the key's own
// dimensions and inside the bounding box — a Slab's LB under NewLBKey.
func (k *TileKey) OfLB(lb []int64) uint64 {
	var key uint64
	for i, v := range lb {
		key += uint64(v-k.lo[i]) * k.mul[i]
	}
	return key
}

// Slabs counts every load-balancing cell's work and tiles in one pass
// over the tile space — what the generated program does at start-up —
// and returns the cells that hold any work, in lexicographic order of
// their coordinates, with the initial tiles (Section IV-K: no producer
// in the space) in loop order. An interior tile (one affine test)
// contributes its box volume; a boundary tile its shape's cell count,
// interning the tile's shapes in rows (shapes.go) — each distinct one
// walked once — for the runs that replay them. rows must be bound to
// params and not yet read by a run; nil binds one for this pass alone.
// When the row plan cannot be walked every tile is counted by the
// checked local nest.
func (tl *Tiling) Slabs(params []int64, key *TileKey, rows *RowPlan) (slabs []Slab, initial [][]int64) {
	if rows == nil {
		rows = tl.BindRows(params)
	}
	probe := tl.NewProbe(params)
	rd := rows.NewReader()
	if rd != nil {
		rd.interning = true
	}
	box := int64(1)
	for _, w := range tl.Widths {
		box *= w // at most AllocLen, which New computed checked
	}
	// An interior tile's dependence shell lies inside the iteration space
	// and reaches into every producer, so only a boundary tile can be
	// initial — or every tile, when there is no tile dependence.
	noDeps := len(tl.TileDeps) == 0
	at := map[uint64]int{}
	lastKey, i := uint64(math.MaxUint64), 0 // consecutive tiles mostly share a slab
	tl.ForEachTile(params, func(t []int64) bool {
		if k, _ := key.Of(t); k != lastKey { // every tile is inside the tile bounds
			var ok bool
			if i, ok = at[k]; !ok {
				i = len(slabs)
				at[k] = i
				slabs = append(slabs, Slab{LB: tl.LBCoords(t, nil)})
			}
			lastKey = k
		}
		interior := probe.Interior(t)
		switch {
		case rd == nil:
			slabs[i].Work += tl.CellCount(params, t)
		case interior:
			slabs[i].Work += box
			if (rows.table.interior == nil || rows.lnVaries) && !rows.table.full {
				rd.fill(t)
			}
		default:
			slabs[i].Work += rd.fill(t)
		}
		slabs[i].Tiles++
		if (!interior || noDeps) && !probe.hasProducer(t) {
			initial = append(initial, slices.Clone(t))
		}
		return true
	})
	slabs = slices.DeleteFunc(slabs, func(s Slab) bool { return s.Work == 0 })
	slices.SortFunc(slabs, func(a, b Slab) int { return slices.Compare(a.LB, b.LB) })
	return slabs, initial
}
