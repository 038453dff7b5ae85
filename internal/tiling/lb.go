package tiling

import (
	"fmt"
	"math"
	"slices"

	"dpgen/internal/sched"
)

// DepOffsets returns each tile dependence's producer offset, Offset.
// The slice is shared: callers must not modify it.
func (tl *Tiling) DepOffsets() [][]int64 { return tl.depOffs }

// LBIndices returns the variable indexes of the load-balancing dimensions
// in priority order (lb1 first). The slice is shared: callers must not
// modify it.
func (tl *Tiling) LBIndices() []int { return tl.lb }

// LBCoords extracts the load-balancing coordinates (priority order) from
// a tile index vector (Vars order).
func (tl *Tiling) LBCoords(t []int64, dst []int64) []int64 {
	if dst == nil {
		dst = make([]int64, len(tl.lb))
	}
	for i, k := range tl.lb {
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

// NewLBKey sizes the key over the load-balancing dimensions (priority
// order): one key per Slab.
func (tl *Tiling) NewLBKey(params []int64) (*sched.Key, error) {
	return tl.newKey(params, tl.lb)
}

// NewRestKey sizes the key over the dimensions that are not
// load-balancing (Vars order): with NewLBKey's, it names a tile by its
// slab and its place in the box every slab's tiles lie in.
func (tl *Tiling) NewRestKey(params []int64) (*sched.Key, error) {
	var dims []int
	for k := range tl.Spec.Vars {
		if !slices.Contains(tl.lb, k) {
			dims = append(dims, k)
		}
	}
	return tl.newKey(params, dims)
}

// NewTileKey sizes the key over every dimension (Vars order): one key
// per tile. It fails exactly when a tile's slab and rest keys together
// (checkpoint keys) do not fit one word.
func (tl *Tiling) NewTileKey(params []int64) (*sched.Key, error) {
	dims := make([]int, len(tl.Spec.Vars))
	for k := range dims {
		dims[k] = k
	}
	return tl.newKey(params, dims)
}

// newKey sizes a key over dims for the given parameters. It fails when
// the bounding box holds more points than an int64 counts.
func (tl *Tiling) newKey(params []int64, dims []int) (*sched.Key, error) {
	lo, hi := tl.TileBounds(params)
	k, err := sched.NewKey(dims, lo, hi)
	if err != nil {
		return nil, fmt.Errorf("tiling: %w", err)
	}
	return k, nil
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
//
// Where it can, the pass goes by rows of tiles: the interior tiles of a
// row are one run (TileProbe.interiorRun), counted at once once the
// interior shape is interned, so only boundary tiles are visited one by
// one. That needs a folded probe, tile dependences (without them every
// tile is initial), range lengths that do not vary with the tile (they
// key interior shapes) and an innermost loop level that is not a
// load-balancing dimension (a row is then one slab).
func (tl *Tiling) Slabs(params []int64, key *sched.Key, rows *RowPlan) (slabs []Slab, initial [][]int64) {
	if rows == nil {
		rows = tl.BindRows(params)
	}
	probe := rows.NewProbe()
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
	// Slab coordinates and initial tiles are appended to one backing
	// array each and cut apart afterwards: a slice cut before a regrowth
	// keeps the old array, whose cells are never written again.
	hint := int(min(key.Len(), 256))
	at := make(map[uint64]int, hint)
	slabs = make([]Slab, 0, hint)
	d, nlb := len(tl.Widths), len(tl.lb)
	lbs := make([]int64, 0, hint*nlb)
	inits := make([]int64, 0, hint*d)       // as many initial tiles as slabs, say
	lastKey, i := uint64(math.MaxUint64), 0 // consecutive tiles mostly share a slab
	slab := func(t []int64) {
		if k, _ := key.Of(t); k != lastKey { // every tile is inside the tile bounds
			var ok bool
			if i, ok = at[k]; !ok {
				i = len(slabs)
				at[k] = i
				for _, v := range tl.lb {
					lbs = append(lbs, t[v])
				}
				slabs = append(slabs, Slab{LB: lbs[len(lbs)-nlb : len(lbs) : len(lbs)]})
			}
			lastKey = k
		}
	}
	tile := func(t []int64, interior bool) {
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
			inits = append(inits, t...)
		}
	}
	inner := tl.orderIdx[d-1]
	if rd == nil || !probe.folded || noDeps || rows.lnVaries || slices.Contains(tl.lb, inner) {
		tl.ForEachTile(params, func(t []int64) bool {
			slab(t)
			tile(t, probe.Interior(t))
			return true
		})
	} else {
		np, t := len(params), make([]int64, d)
		tl.TileNest.EnumerateRows(params, func(vals []int64, lo, hi int64) bool {
			copy(t, vals[np:])
			slab(t)
			a, b := probe.interiorRun(t, inner, lo, hi)
			for v := lo; v <= hi; v++ {
				interior := a <= v && v <= b
				if interior && (rows.table.interior != nil || rows.table.full) {
					slabs[i].Work += (b - v + 1) * box
					slabs[i].Tiles += b - v + 1
					v = b
					continue
				}
				t[inner] = v
				tile(t, interior)
			}
			return true
		})
	}
	if len(inits) > 0 {
		initial = make([][]int64, len(inits)/d)
		for j := range initial {
			initial[j] = inits[j*d : (j+1)*d : (j+1)*d]
		}
	}
	slabs = slices.DeleteFunc(slabs, func(s Slab) bool { return s.Work == 0 })
	slices.SortFunc(slabs, func(a, b Slab) int { return slices.Compare(a.LB, b.LB) })
	return slabs, initial
}
