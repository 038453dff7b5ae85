package tiling

import (
	"encoding/binary"
	"slices"
)

// This file compiles a tile's walk once per tile shape: a Shape records
// one walk — rows, runs of constant validity, range lengths relative to
// the tile's folded bases — and a slab a partial edge slab's rows as
// [start, end) buffer spans in pack order. Slabs interns them in its
// pass over the tiles; a run's ShapeReader keys each tile and replays.
//
// Why the key is exact. A tile's cells are the integer points S(t) of the
// local system — the spec's constraints over x = i + w·t, and the tile
// box — and the cell nest is its Fourier–Motzkin projection, exact over
// the rationals, so the walker emits exactly the non-empty rows of S(t);
// a pack nest does the same for S(t) cut by a tile-independent band. The
// system key fixes S(t): each inequality that varies with the tile is
// keyed as holding at every box point (it does not shape S(t)), failing
// at every point (S(t) is empty) or by its exact value. The cell key adds
// the dependence forms, each read at a cell as r + c·i >= 0 (a length as
// length >= 1): holding over the box it never clips a row, failing it
// empties the dependence's interval on every row. An interior tile keys
// as all-holding save perhaps its lengths.

// shapeBudget bounds a plan's shape table at 2^17 rows (about 6 MiB):
// seventy times the largest a benchmark workload interns (bandit2 at
// N = 100: 1 665 rows). Shapes past it barely repeat, so replay would
// save little: those tiles are walked into their reader's scratch.
const shapeBudget = 1 << 17

// Shape is the compiled walk of one tile's cells. It holds no tile
// coordinate, so every tile with its key replays it; an interned shape
// is immutable.
type Shape struct {
	// Runs in execution order. Row r's cell with innermost local index 0
	// is at buffer index Loc[r], its outer local indices, every loop level
	// but the innermost in loop order, are Outer[r*(d-1):][:d-1].
	Runs   []ShapeRun
	Loc    []int64
	Outer  []int64
	Cells  int64
	lens   []lenRow
	clamps []rangeClamp
}

// ShapeRun is a run of cells of row Row with constant dependence
// validity: its first and last innermost local indices in execution
// order, and bit j of Valid for dependence j. On a row's first run,
// OuterFrom is the first outer loop level whose index differs from the
// last row before it that has a run (0 on the tile's first run), so a
// runner that applies rows as their runs come rewrites only the levels
// from OuterFrom down.
type ShapeRun struct {
	From, To  int64
	Valid     uint64
	Row       int32
	OuterFrom int32
	l0, l1    int32 // length rows of its valid range dependences: lens[l0:l1]
}

// Ranged reports whether a valid range dependence's length can vary
// along the run: offers must then be cut by LenRun.
func (r *ShapeRun) Ranged() bool { return r.l1 > r.l0 }

// shapeTable is a plan's interned shapes, filled by Slabs and read-only
// afterwards: cell shapes by cell key, a tile's slab shapes by system
// key, and interior, the all-holding cell shape.
type shapeTable struct {
	cells    map[string]*Shape
	slabs    map[string][][]int64
	interior *Shape
	rows     int64 // rows interned
	full     bool  // a shape did not fit the budget: nothing more is interned
}

// ShapeStats describes a plan's shape table.
type ShapeStats struct {
	Cells, Slabs int   // interned cell and slab shapes
	Rows         int64 // their rows, slab rows included
	Walked       int64 // rows walked compiling shapes so far, interned or not
}

// ShapeStats reports the table; Walked grows while runs walk tiles the
// table lacks.
func (p *RowPlan) ShapeStats() ShapeStats {
	tab := &p.table
	return ShapeStats{Cells: len(tab.cells), Slabs: len(tab.slabs) * len(p.packs), Rows: tab.rows, Walked: p.walked.Load()}
}

// admit reserves rows rows for new shapes, or closes the table.
func (p *RowPlan) admit(rows int64) bool {
	tab := &p.table
	if tab.full = tab.full || tab.rows+rows > p.budget; !tab.full {
		tab.rows += rows
	}
	return !tab.full
}

// clampRule reads a form as base + Σ ic[m]·i_m + k >= 0, whose least
// and greatest values over the tile box are base + min and base + max.
type clampRule struct{ min, max int64 }

// boxRule is the rule of base + Σ ic[m]·i_m + k >= 0, ic by loop level.
func (tl *Tiling) boxRule(ic []int64, k int64) clampRule {
	r := clampRule{k, k}
	for m, c := range ic {
		v := c * (tl.Widths[tl.orderIdx[m]] - 1)
		r.min += min(0, v)
		r.max += max(0, v)
	}
	return r
}

// Key bytes per form: keyHolds or keyFails where the form holds or fails
// at every box point, else keyExact and its folded value.
const (
	keyHolds byte = iota
	keyFails
	keyExact
)

// append appends the key entry of a form whose folded value is v.
func (r clampRule) append(key []byte, v int64) []byte {
	switch {
	case v+r.min >= 0:
		return append(key, keyHolds)
	case v+r.max < 0:
		return append(key, keyFails)
	}
	return binary.LittleEndian.AppendUint64(append(key, keyExact), uint64(v))
}

// sysKey appends tile t's system key.
func (p *RowPlan) sysKey(key []byte, t []int64) []byte {
	for i := range p.sysForms {
		key = p.sysRules[i].append(key, p.sysForms[i].at(t))
	}
	return key
}

// ShapeReader is per-goroutine scratch for replaying one plan's shapes. A
// miss is walked into its scratch (in Slabs' pass, into the table while
// the budget lasts), valid until its next call of the same kind.
type ShapeReader struct {
	plan        *RowPlan
	rw          *RowWalker
	interning   bool    // Slabs' pass
	dir         int64   // the innermost loop's direction
	key         []byte  // key scratch
	base        []int64 // the current tile's folded dependence forms
	cur         *Shape  // the tile LenRun reads
	scratch     Shape
	slabScratch []int64
}

// NewReader creates a reader, or nil when the plan cannot be walked.
func (p *RowPlan) NewReader() *ShapeReader {
	rw := p.NewWalker()
	if rw == nil {
		return nil
	}
	// A key entry is at most nine bytes.
	key := make([]byte, 0, 9*(len(p.sysForms)+len(p.depRules)))
	return &ShapeReader{plan: p, rw: rw, dir: int64(rw.cellDirs[len(rw.cellDirs)-1]), base: make([]int64, p.nforms), key: key}
}

// LenRun fills lens for run's valid range dependences at innermost local
// index i of the tile Cells last returned, and returns how many of the
// cnt cells from i onwards in execution order share those lengths: at
// least 1, and the longest such prefix.
func (rd *ShapeReader) LenRun(run *ShapeRun, i, cnt int64, lens []int64) int64 {
	sh := rd.cur
	return lenRun(sh.lens[run.l0:run.l1], sh.clamps, rd.base, i, cnt, rd.dir, lens)
}

// ConstLens reports whether every range dependence of the interior tile
// Cells last returned has one length over the whole tile box, and if so
// fills lens with those lengths, which are then what LenRun would fill at
// every cell. It reads the forms Cells folded: a length n is constant
// when its declared form has no local coefficient, n >= 1, and every
// clamping range check stays at or above it — the check's least value
// over the box, its clampRule's, is at least (n-1)·neg.
func (rd *ShapeReader) ConstLens(lens []int64) bool {
	p := rd.plan
	if !p.lnFlat {
		return false
	}
	nnest := p.cells.nnest
	for j := range p.deps {
		dp := &p.deps[j]
		if dp.rng < 0 {
			continue
		}
		n := rd.base[dp.ln]
		if n < 1 {
			return false
		}
		for c, neg := range dp.neg {
			if f := dp.v0 + c; neg > 0 && rd.base[f]+p.depRules[f-nnest].min < (n-1)*neg {
				return false
			}
		}
	}
	for j := range p.deps {
		if dp := &p.deps[j]; dp.rng >= 0 {
			lens[j] = rd.base[dp.ln]
		}
	}
	return true
}

// Cells returns tile t's shape and makes t the tile LenRun reads.
// interior asserts that t satisfies InteriorSys: only its range lengths
// are then keyed.
func (rd *ShapeReader) Cells(t []int64, interior bool) *Shape {
	p, tab := rd.plan, &rd.plan.table
	forms, nnest := p.cells.forms, p.cells.nnest
	if interior && tab.interior != nil {
		// Its validity forms hold: only a range length can fail to.
		holds := true
		for f := nnest; f < len(forms) && p.nrange > 0; f++ {
			rd.base[f] = forms[f].at(t)
			holds = holds && rd.base[f]+p.depRules[f-nnest].min >= 0
		}
		if holds {
			rd.cur = tab.interior
			return rd.cur
		}
	}
	rd.key = p.sysKey(rd.key[:0], t)
	return rd.keyedCells(t)
}

// keyedCells is Cells of tile t once rd.key holds t's system key.
func (rd *ShapeReader) keyedCells(t []int64) *Shape {
	p, tab := rd.plan, &rd.plan.table
	forms, nnest := p.cells.forms, p.cells.nnest
	key := rd.key
	for f := nnest; f < len(forms); f++ {
		rd.base[f] = forms[f].at(t)
		key = p.depRules[f-nnest].append(key, rd.base[f])
	}
	rd.key = key
	sh := tab.cells[string(key)]
	if sh == nil {
		sh = &rd.scratch
		rd.rw.compileCells(t, sh)
		if rd.interning && p.admit(int64(len(sh.Loc))) {
			sh = sh.clone()
			tab.cells[string(key)] = sh
			if !slices.ContainsFunc(key, func(c byte) bool { return c != keyHolds }) {
				tab.interior = sh
			}
		}
	}
	rd.cur = sh
	return sh
}

// clone copies a shape compiled into scratch at its exact size.
func (sh *Shape) clone() *Shape {
	c := &Shape{Cells: sh.Cells, Runs: slices.Clone(sh.Runs), lens: slices.Clone(sh.lens), clamps: slices.Clone(sh.clamps)}
	idx := make([]int64, len(sh.Loc)+len(sh.Outer))
	n := copy(idx, sh.Loc)
	copy(idx[n:], sh.Outer)
	c.Loc, c.Outer = idx[:n:n], idx[n:]
	return c
}

// slab finds producer tile t's slab for tile dependence dep.
func (rd *ShapeReader) slab(dep int, t []int64) []int64 {
	rd.key = rd.plan.sysKey(rd.key[:0], t)
	if sl := rd.plan.table.slabs[string(rd.key)]; sl != nil {
		return sl[dep]
	}
	rd.slabScratch = rd.rw.compileSlab(dep, t, rd.slabScratch[:0])
	return rd.slabScratch
}

// fill interns tile t's cell shape and, the first time its system key is
// seen, its slab shapes; it returns the tile's cell count.
func (rd *ShapeReader) fill(t []int64) int64 {
	p := rd.plan
	rd.key = p.sysKey(rd.key[:0], t)
	if _, ok := p.table.slabs[string(rd.key)]; !ok && !p.table.full {
		// Every dependence's slab is compiled into scratch, end to end,
		// and the interned ones are cut from one copy of it.
		if rd.slabScratch == nil {
			rd.slabScratch = make([]int64, 0, 2*p.boxRows*int64(len(p.packs)))
		}
		slabs, spans := make([][]int64, len(p.packs)), rd.slabScratch[:0]
		for dep := range slabs {
			from := len(spans)
			spans = rd.rw.compileSlab(dep, t, spans)
			slabs[dep] = spans[from:] // only its length is kept
		}
		rd.slabScratch = spans
		if p.admit(int64(len(spans) / 2)) {
			all, from := slices.Clone(spans), 0
			for dep, sl := range slabs {
				end := from + len(sl)
				slabs[dep] = all[from:end:end]
				from = end
			}
			p.table.slabs[string(rd.key)] = slabs
		}
	}
	return rd.keyedCells(t).Cells
}

// PackPartial appends producer tile t's slab cells for tile dependence
// dep to out, in ForEachEdgeCell order: one copy per span.
func (rd *ShapeReader) PackPartial(dep int, t []int64, buf, out []float64) []float64 {
	return packSpans(rd.slab(dep, t), buf, out)
}

// EdgeCells returns the cell count of producer tile t's slab for tile
// dependence dep: the length of the edge PackPartial packs.
func (rd *ShapeReader) EdgeCells(dep int, t []int64) int64 {
	return spanCells(rd.slab(dep, t))
}

// spanCells counts a slab's cells.
func spanCells(sp []int64) int64 {
	var cells int64
	for k := 0; k < len(sp); k += 2 {
		cells += sp[k+1] - sp[k]
	}
	return cells
}

// UnpackPartial writes an edge packed by producer tile t for tile
// dependence dep into the consumer's ghost shell and returns the slab's
// cell count. An edge whose length differs from that count is not
// written.
func (rd *ShapeReader) UnpackPartial(dep int, t []int64, buf, data []float64) int {
	sp := rd.slab(dep, t)
	if cells := spanCells(sp); cells != int64(len(data)) {
		return int(cells)
	}
	unpackSpans(sp, rd.plan.tl.TileDeps[dep].Shift, buf, data)
	return len(data)
}

// compileCells records the walk of tile t into sh.
func (rw *RowWalker) compileCells(t []int64, sh *Shape) {
	no := len(rw.il) - 1
	if sh.Loc == nil {
		// Room for a full box, one run a row.
		rows := rw.plan.boxRows
		idx := make([]int64, rows*int64(no+1))
		sh.Loc, sh.Outer, sh.Runs = idx[:0:rows], idx[rows:rows], make([]ShapeRun, 0, rows)
	}
	*sh = Shape{Runs: sh.Runs[:0], Loc: sh.Loc[:0], Outer: sh.Outer[:0], lens: sh.lens[:0], clamps: sh.clamps[:0]}
	dir := int64(rw.cellDirs[len(rw.cellDirs)-1])
	applied := -1 // the last row with a run
	rw.Begin(t)
	for rw.NextRow() {
		sh.Loc = append(sh.Loc, rw.RowLoc)
		sh.Outer = append(sh.Outer, rw.il[:no]...)
		cbase := int32(len(sh.clamps))
		sh.clamps = append(sh.clamps, rw.clamps...)
		r := len(sh.Loc) - 1
		for rw.NextRun() {
			run := ShapeRun{From: rw.From, To: rw.To, Row: int32(r), l0: int32(len(sh.lens))}
			if applied != r {
				if applied >= 0 {
					cur, last := sh.Outer[r*no:][:no], sh.Outer[applied*no:][:no]
					for int(run.OuterFrom) < no && cur[run.OuterFrom] == last[run.OuterFrom] {
						run.OuterFrom++
					}
				}
				applied = r
			}
			for j, v := range rw.DepValid {
				if v {
					run.Valid |= 1 << j
				}
			}
			for _, lr := range rw.active {
				lr.c0, lr.c1 = lr.c0+cbase, lr.c1+cbase
				sh.lens = append(sh.lens, lr)
			}
			run.l1 = int32(len(sh.lens))
			sh.Runs = append(sh.Runs, run)
			sh.Cells += (rw.To-rw.From)*dir + 1
		}
	}
	rw.plan.walked.Add(int64(len(sh.Loc)))
}

// compileSlab appends producer tile t's slab for tile dependence dep to
// spans.
func (rw *RowWalker) compileSlab(dep int, t []int64, spans []int64) []int64 {
	from := len(spans)
	if rw.begin(&rw.plan.packs[dep], t, rw.ascending) {
		for rw.next() {
			loc := rw.rowLoc()
			spans = append(spans, loc+rw.lo, loc+rw.hi+1)
		}
	}
	rw.plan.walked.Add(int64(len(spans)-from) / 2)
	return spans
}
