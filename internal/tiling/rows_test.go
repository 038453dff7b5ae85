package tiling_test

import (
	"fmt"
	"testing"

	"dpgen/internal/dpfuzz"
	"dpgen/internal/problems"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// cellRec is one cell as a kernel would see it.
type cellRec struct {
	i     []int64
	loc   int64
	valid []bool
	lens  []int64
}

// referenceCells walks tile t with the checked enumerator and DepLenAt.
func referenceCells(tl *tiling.Tiling, params, t []int64) []cellRec {
	sp := tl.Spec
	np, nd := len(params), len(sp.Deps)
	vals := make([]int64, sp.Space().N())
	copy(vals, params)
	var out []cellRec
	tl.ForEachCell(params, t, func(i []int64) bool {
		r := cellRec{i: append([]int64(nil), i...), loc: tl.Loc(i), valid: make([]bool, nd), lens: make([]int64, nd)}
		for k := range i {
			vals[np+k] = i[k] + tl.Widths[k]*t[k]
		}
		for j := 0; j < nd; j++ {
			r.lens[j] = tl.DepLenAt(j, vals)
			r.valid[j] = r.lens[j] > 0
		}
		out = append(out, r)
		return true
	})
	return out
}

// walkerCells walks tile t with the row walker, the way the engine's
// row runner does: a run whose range lengths vary is taken in LenRun
// prefixes, every cell of a prefix recorded with the lengths LenRun
// filled at its first cell. A prefix that stops short of a cell with
// the same lengths is an error — LenRun promises the longest one — and
// CellLens must agree with LenRun at every prefix start.
func walkerCells(tl *tiling.Tiling, rw *tiling.RowWalker, t []int64) ([]cellRec, error) {
	inner := tl.Dense[len(tl.Dense)-1]
	step := int64(inner.Dir)
	lens := make([]int64, len(tl.Spec.Deps))
	var out []cellRec
	rw.Begin(t)
	for rw.NextRow() {
		for rw.NextRun() {
			for j, v := range rw.DepValid {
				lens[j] = 0
				if v {
					lens[j] = 1
				}
			}
			var prev []int64
			for i, cnt := rw.From, (rw.To-rw.From)*step+1; cnt > 0; {
				n := int64(1)
				if rw.Ranged() {
					n = rw.LenRun(i, cnt, lens)
					if n < 1 || n > cnt {
						return nil, fmt.Errorf("LenRun(%d, %d) = %d at row %v", i, cnt, n, rw.Index(i))
					}
					cell := append([]int64(nil), lens...)
					if rw.CellLens(i, cell); fmt.Sprint(lens) != fmt.Sprint(cell) {
						return nil, fmt.Errorf("LenRun(%d) filled %v, CellLens %v at row %v", i, lens, cell, rw.Index(i))
					}
					if fmt.Sprint(lens) == fmt.Sprint(prev) {
						return nil, fmt.Errorf("LenRun stopped before i=%d with lengths %v unchanged at row %v", i, lens, rw.Index(i))
					}
					prev = append(prev[:0], lens...)
				}
				for ; n > 0; n-- {
					out = append(out, cellRec{
						i:     rw.Index(i),
						loc:   rw.RowLoc + i*inner.Stride,
						valid: append([]bool(nil), rw.DepValid...),
						lens:  append([]int64(nil), lens...),
					})
					i += step
					cnt--
				}
			}
		}
	}
	return out, nil
}

// diffWalk diffs the walker's cells of tile t against the reference.
func diffWalk(tl *tiling.Tiling, rw *tiling.RowWalker, t []int64, want []cellRec) error {
	got, err := walkerCells(tl, rw, t)
	if err != nil {
		return err
	}
	return diffCells(got, want)
}

func diffCells(got, want []cellRec) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d cells, reference has %d", len(got), len(want))
	}
	for n := range want {
		g, w := fmt.Sprint(got[n]), fmt.Sprint(want[n])
		if g != w {
			return fmt.Errorf("cell %d: {i loc valid len} = %s, reference %s", n, g, w)
		}
	}
	return nil
}

// shapeCells replays tile t's shape the way the engine's row runner
// does: rows and runs as stored, a new row's outer indices from its
// first run's OuterFrom level down (the indices start out as garbage),
// each run's pattern, and a ranged run in LenRun prefixes.
func shapeCells(tl *tiling.Tiling, rd *tiling.ShapeReader, t []int64, interior bool) ([]cellRec, error) {
	d, nd := len(tl.Spec.Vars), len(tl.Spec.Deps)
	outer, inner := tl.Dense[:d-1], tl.Dense[d-1]
	step := int64(inner.Dir)
	idx, lens := make([]int64, d), make([]int64, nd)
	for k := range idx {
		idx[k] = -7777
	}
	var out []cellRec
	sh := rd.Cells(t, interior)
	row := int32(-1)
	for _, run := range sh.Runs {
		if run.Row != row {
			row = run.Row
			for l := int(run.OuterFrom); l < len(outer); l++ {
				idx[outer[l].Var] = sh.Outer[int(run.Row)*(d-1)+l]
			}
		}
		valid := make([]bool, nd)
		for j := range valid {
			valid[j], lens[j] = run.Valid>>j&1 != 0, int64(run.Valid>>j&1)
		}
		for i, cnt := run.From, (run.To-run.From)*step+1; cnt > 0; {
			n := cnt
			if run.Ranged() {
				if n = rd.LenRun(&run, i, cnt, lens); n < 1 || n > cnt {
					return nil, fmt.Errorf("LenRun(%d, %d) = %d at row %v", i, cnt, n, idx)
				}
			}
			for ; n > 0; n-- {
				idx[inner.Var] = i
				out = append(out, cellRec{
					i:     append([]int64(nil), idx...),
					loc:   sh.Loc[run.Row] + i*inner.Stride,
					valid: append([]bool(nil), valid...),
					lens:  append([]int64(nil), lens...),
				})
				i += step
				cnt--
			}
		}
	}
	if int64(len(out)) != sh.Cells {
		return nil, fmt.Errorf("shape counts %d cells, replays %d", sh.Cells, len(out))
	}
	return out, nil
}

// checkRowPlan diffs the row plan against the checked reference on
// every tile of the space, three ways: the RowWalker, a ShapeReader on a
// plan with no table (every tile compiled into the reader's scratch
// shape) and a ShapeReader on a plan whose table Slabs filled (every
// tile replayed). It diffs the cell sequence with its per-cell
// DepValid/DepLen (the readers in boundary mode everywhere, interior
// mode additionally where the tile classifies as interior, with the
// lengths ConstLens settles there), the partial-slab pack and
// unpack element order of both readers, and the folded probe queries.
// A replayed tile must walk nothing. It returns the number of tiles that
// took the interior mode and how many of them ConstLens settled.
func checkRowPlan(tl *tiling.Tiling, params []int64) (interiorTiles, settledTiles int, err error) {
	interiorTiles, settledTiles, _, err = checkRowPlanBudget(tl, params, 0)
	return interiorTiles, settledTiles, err
}

// checkRowPlanBudget is checkRowPlan with the replayed plan's shape
// budget set to budget rows (0 keeps the default, under which no tile
// may be walked on replay); it also returns that plan's table.
func checkRowPlanBudget(tl *tiling.Tiling, params []int64, budget int64) (interiorTiles, settledTiles int, stats tiling.ShapeStats, err error) {
	plan, filled := tl.BindRows(params), tl.BindRows(params)
	if !plan.OK() {
		return 0, 0, stats, fmt.Errorf("overflow proof failed at params %v", params)
	}
	if budget > 0 {
		filled.SetShapeBudget(budget)
	}
	key, err := tl.NewLBKey(params)
	if err != nil {
		return 0, 0, stats, err
	}
	tl.Slabs(params, key, filled)
	rw, compile, replay := plan.NewWalker(), plan.NewReader(), filled.NewReader()
	readers := []*tiling.ShapeReader{compile, replay}
	walked := func() int64 { return filled.ShapeStats().Walked }
	probe := tl.NewProbe(params)
	d := len(tl.Spec.Vars)
	tvals := make([]int64, len(params)+d)
	copy(tvals, params)

	// diff checks both readers against want. replayed: the mode is the
	// one a run takes, so the table must hold the tile.
	diff := func(t []int64, interior, replayed bool, want []cellRec) error {
		for n, rd := range readers {
			before := walked()
			got, err := shapeCells(tl, rd, t, interior)
			if err == nil {
				err = diffCells(got, want)
			}
			if err == nil && n == 1 && replayed && budget == 0 && walked() != before {
				err = fmt.Errorf("walked %d rows on replay", walked()-before)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", [...]string{"compiled shape", "replayed shape"}[n], err)
			}
		}
		return nil
	}

	// Distinct buffer values make a wrong source or target cell visible.
	buf := make([]float64, tl.AllocLen)
	for i := range buf {
		buf[i] = float64(i)
	}
	nb := make([]int64, d)
	tl.ForEachTile(params, func(t []int64) bool {
		want := referenceCells(tl, params, t)
		if err = diffWalk(tl, rw, t, want); err != nil {
			err = fmt.Errorf("tile %v: walker: %w", t, err)
			return false
		}
		copy(tvals[len(params):], t)
		interior := tl.InteriorSys.Contains(tvals)
		if err = diff(t, false, !interior, want); err != nil {
			err = fmt.Errorf("tile %v: %w", t, err)
			return false
		}
		if probe.Interior(t) != interior || !probe.InSpace(t) {
			err = fmt.Errorf("tile %v: probe Interior %v InSpace %v, systems say %v true",
				t, probe.Interior(t), probe.InSpace(t), interior)
			return false
		}
		if interior {
			interiorTiles++
			if err = diff(t, true, true, want); err != nil {
				err = fmt.Errorf("interior tile %v: %w", t, err)
				return false
			}
			var got [2]bool
			for n, rd := range readers {
				if got[n], err = checkConstLens(tl, rd, want); err != nil {
					err = fmt.Errorf("interior tile %v, %s: %w", t, [...]string{"compiled shape", "replayed shape"}[n], err)
					return false
				}
			}
			if got[0] != got[1] {
				err = fmt.Errorf("interior tile %v: ConstLens %v compiled, %v replayed", t, got[0], got[1])
				return false
			}
			if got[0] {
				settledTiles++
			}
		}
		if got, ref := probe.DepCount(t), tl.DepCount(params, t); got != ref {
			err = fmt.Errorf("tile %v: probe DepCount %d, reference %d", t, got, ref)
			return false
		}
		for dep := range tl.TileDeps {
			// Probe a ring of neighbours, some outside the bounding box.
			for k := range nb {
				nb[k] = t[k] - 2*tl.TileDeps[dep].Offset[k]
			}
			if got, ref := probe.InSpace(nb), tl.InTileSpace(params, nb); got != ref {
				err = fmt.Errorf("tile %v: probe InSpace %v, reference %v", nb, got, ref)
				return false
			}
			var wantPack []float64
			wantUnpack := make(map[int64]float64)
			tl.ForEachEdgeCell(params, t, dep, func(i []int64) bool {
				wantUnpack[tl.UnpackLoc(dep, i)] = float64(len(wantPack))
				wantPack = append(wantPack, buf[tl.Loc(i)])
				return true
			})
			for n, rd := range readers {
				before := walked()
				if err = checkSlab(tl, rd, t, dep, buf, wantPack, wantUnpack); err == nil &&
					n == 1 && budget == 0 && !interior && walked() != before {
					err = fmt.Errorf("walked %d rows on replay", walked()-before)
				}
				if err != nil {
					err = fmt.Errorf("tile %v dep %d, %s: %w", t, dep, [...]string{"compiled slab", "replayed slab"}[n], err)
					return false
				}
			}
		}
		return true
	})
	return interiorTiles, settledTiles, filled.ShapeStats(), err
}

// checkConstLens asks rd, which has just replayed an interior tile whose
// reference cells are want, whether the tile's range lengths are
// constant; where it says so, every cell's DepLenAt must be the length
// it filled.
func checkConstLens(tl *tiling.Tiling, rd *tiling.ShapeReader, want []cellRec) (bool, error) {
	lens := make([]int64, len(tl.Spec.Deps))
	if !rd.ConstLens(lens) {
		return false, nil
	}
	for _, c := range want {
		for j := range lens {
			if tl.Spec.Deps[j].IsRange() && c.lens[j] != lens[j] {
				return true, fmt.Errorf("cell %v: ConstLens filled length %d for dependence %d, DepLenAt %d", c.i, lens[j], j, c.lens[j])
			}
		}
	}
	return true, nil
}

// checkSlab packs and unpacks producer tile t's slab for dep through rd
// against the reference order, checks its EdgeCells count, and feeds it
// an edge one value short and one value long: both must be refused with
// the slab's cell count.
func checkSlab(tl *tiling.Tiling, rd *tiling.ShapeReader, t []int64, dep int, buf, wantPack []float64, wantUnpack map[int64]float64) error {
	gotPack := rd.PackPartial(dep, t, buf, nil)
	if fmt.Sprint(gotPack) != fmt.Sprint(wantPack) {
		return fmt.Errorf("packed %v, reference %v", gotPack, wantPack)
	}
	if n := rd.EdgeCells(dep, t); n != int64(len(wantPack)) {
		return fmt.Errorf("EdgeCells %d, reference %d", n, len(wantPack))
	}
	data := make([]float64, len(wantPack)+1)
	for i := range data {
		data[i] = float64(i)
	}
	ghost := make([]float64, tl.AllocLen)
	for i := range ghost {
		ghost[i] = -1
	}
	for _, bad := range [][]float64{data, data[:max(0, len(wantPack)-1)]} {
		if len(bad) == len(wantPack) {
			continue
		}
		if n := rd.UnpackPartial(dep, t, ghost, bad); n != len(wantPack) {
			return fmt.Errorf("%d-value edge: UnpackPartial reports %d slab cells, reference %d", len(bad), n, len(wantPack))
		}
	}
	for loc, v := range ghost {
		if v != -1 {
			return fmt.Errorf("ghost[%d] = %v written by a refused edge", loc, v)
		}
	}
	data = data[:len(wantPack)]
	if n := rd.UnpackPartial(dep, t, ghost, data); n != len(data) {
		return fmt.Errorf("unpacked %d of %d", n, len(data))
	}
	for loc, v := range ghost {
		if w, ok := wantUnpack[int64(loc)]; (ok && v != w) || (!ok && v != -1) {
			return fmt.Errorf("ghost[%d] = %v after unpack, reference %v (written %v)", loc, v, w, ok)
		}
	}
	return nil
}

// TestRowsMatchEnumeratorBuiltins: the row plan against ForEachCell /
// DepLenAt / ForEachEdgeCell for every builtin at its registry size.
func TestRowsMatchEnumeratorBuiltins(t *testing.T) {
	for _, name := range problems.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := problems.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			tl, err := tiling.New(p.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := checkRowPlan(tl, p.DefaultParams); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRowsConstLens: knap's range length is W+1 wherever the capacity
// does not clamp it, which no interior tile's box reaches, so every
// interior tile settles its length once — what lets the engine offer
// knap's interior runs whole (checkRowPlan checks each such length
// against DepLenAt at every cell).
func TestRowsConstLens(t *testing.T) {
	tl, err := tiling.New(problems.Knapsack().Spec)
	if err != nil {
		t.Fatal(err)
	}
	interior, settled, err := checkRowPlan(tl, []int64{100, 400, 3})
	if err != nil {
		t.Fatal(err)
	}
	if interior != 576 || settled != interior {
		t.Errorf("%d of %d interior tiles settled; want all 576", settled, interior)
	}
}

// TestRowsMatchEnumeratorFuzz: the same diff on 200 generated specs per
// template class, at the engine-layer size and at a small size whose
// tiles are all degenerate partial tiles. The cost is tiling.New, not
// the diff, and a 4-D spec costs ten times a 3-D one (0.7 s, a pack nest
// per tile crossing), so after the first ten 4-D specs of a class the
// seed stream's later ones are passed over; bandit2, bandit2delay,
// bandit3 and msa4 above cover 4-D and 6-D besides.
func TestRowsMatchEnumeratorFuzz(t *testing.T) {
	specs, max4D := 200, 10
	if testing.Short() {
		specs, max4D = 40, 2
	}
	for _, class := range []dpfuzz.Class{dpfuzz.ClassConst, dpfuzz.ClassVarDist, dpfuzz.ClassRange} {
		class := class
		t.Run(class.String(), func(t *testing.T) {
			t.Parallel()
			interior, settled, n4D := 0, 0, 0
			for seed, done := uint64(1), 0; done < specs; seed++ {
				in := dpfuzz.GenerateClass(seed, class)
				if len(in.Spec.Vars) == 4 {
					if n4D == max4D {
						continue
					}
					n4D++
				}
				done++
				tl, err := tiling.New(in.Spec)
				if err != nil {
					t.Fatalf("seed %d: tiling.New: %v", seed, err)
				}
				for _, N := range []int64{2, in.N} {
					params := []int64{N}
					if len(in.Spec.Params) > 1 {
						params = append(params, in.D)
					}
					k, s, err := checkRowPlan(tl, params)
					if err != nil {
						t.Fatalf("seed %d params %v: %v\n%s", seed, params, err, dpfuzz.GoLiteral(in))
					}
					interior, settled = interior+k, settled+s
				}
			}
			t.Logf("%d interior tiles, %d with settled range lengths", interior, settled)
			if interior == 0 {
				t.Errorf("no generated tile was interior: the interior mode went untested")
			}
			if class == dpfuzz.ClassRange && (settled == 0 || settled == interior) {
				t.Errorf("ConstLens settled %d of %d interior tiles: one of its answers went untested", settled, interior)
			}
		})
	}
}

// TestRowsOverflowProof: a parameter too large for the bind-time proof
// (though every checked evaluation still fits int64) must leave the
// plan unusable and the probe on its checked path, with unchanged
// answers.
func TestRowsOverflowProof(t *testing.T) {
	sp := hugeParamSpec()
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	small := []int64{20, 50}
	if _, _, err := checkRowPlan(tl, small); err != nil {
		t.Fatalf("small M: %v", err)
	}
	huge := []int64{20, hugeParam}
	plan := tl.BindRows(huge)
	if plan.OK() || plan.NewWalker() != nil {
		t.Fatalf("overflow proof held at M=%d", hugeParam)
	}
	probe, ref := tl.NewProbe(huge), tl.NewProbe(small)
	tl.ForEachTile(huge, func(tt []int64) bool {
		if !probe.InSpace(tt) || probe.Interior(tt) != ref.Interior(tt) || probe.DepCount(tt) != ref.DepCount(tt) ||
			probe.Core(tt) != ref.Core(tt) {
			t.Errorf("tile %v: checked probe disagrees with the folded probe of the same space", tt)
		}
		return true
	})
}

// hugeParam is above the proof limit of 2^62 but leaves M - x - y
// inside int64.
const hugeParam = int64(3) << 61

// hugeParamSpec is a triangle x + y <= N with a second, slack
// constraint x + y <= M whose parameter the overflow test inflates.
func hugeParamSpec() *spec.Spec {
	sp := spec.MustNew("hugeparam", []string{"N", "M"}, []string{"x", "y"})
	sp.MustConstrain("x >= 0")
	sp.MustConstrain("y >= 0")
	sp.MustConstrain("x + y <= N")
	sp.MustConstrain("x + y <= M")
	sp.AddDep("r1", 1, 0)
	sp.AddDep("r2", 0, 1)
	sp.TileWidths = []int64{4, 4}
	return sp
}

// triangleSpec is the triangular spec the serve-mix benchmark posts:
// i + j <= N on 16x16 tiles.
func triangleSpec() *spec.Spec {
	sp := spec.MustNew("tri", []string{"N"}, []string{"i", "j"})
	sp.MustConstrain("i >= 0")
	sp.MustConstrain("j >= 0")
	sp.MustConstrain("i + j <= N")
	sp.AddDep("down", 1, 0)
	sp.AddDep("right", 0, 1)
	sp.TileWidths = []int64{16, 16}
	sp.LBDims = []string{"i"}
	return sp
}

// skewSpec is a triangle whose slanted side 5x + 7y <= N crosses every
// boundary tile at a different offset: no two boundary tiles share a
// shape.
func skewSpec() *spec.Spec {
	sp := spec.MustNew("skew", []string{"N"}, []string{"x", "y"})
	sp.MustConstrain("x >= 0")
	sp.MustConstrain("y >= 0")
	sp.MustConstrain("5*x + 7*y <= N")
	sp.AddDep("r", 1, 0)
	sp.AddDep("d", 0, 1)
	sp.TileWidths = []int64{3, 3}
	return sp
}

// fillShapes binds a plan for params, fills its shape table with Slabs
// and returns it with the tiling's tile and boundary-tile counts.
func fillShapes(t *testing.T, sp *spec.Spec, params []int64) (plan *tiling.RowPlan, tiles, boundary int) {
	t.Helper()
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	plan = tl.BindRows(params)
	key, err := tl.NewLBKey(params)
	if err != nil {
		t.Fatal(err)
	}
	tl.Slabs(params, key, plan)
	probe := tl.NewProbe(params)
	tl.ForEachTile(params, func(tt []int64) bool {
		tiles++
		if !probe.Interior(tt) {
			boundary++
		}
		return true
	})
	return plan, tiles, boundary
}

// TestRowsShapeSharing pins how many distinct shapes the benchmark's
// instances intern — the property replay's saving rests on, so a key that
// quietly stops sharing fails here and not only in a timing. The cell
// shapes include the interior one, which the boundary tiles whose every
// form holds share; every interned row was walked once.
func TestRowsShapeSharing(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		sp                     *spec.Spec
		params                 []int64
		boundaryTiles          int
		cellShapes, slabShapes int
	}{
		// 3 025 boundary tiles and 12 100 (tile, dependence) slabs: the
		// slack N - 6Σt takes four values on the boundary, one of them
		// (Σt = 13) leaving every form holding.
		{"bandit2", problems.Bandit2().Spec, []int64{100}, 3025, 4, 16},
		// The last tile row, the last tile column and their corner.
		{"lcs2", problems.LCS2("", "").Spec, []int64{2000, 2000}, 125, 4, 12},
		// The two diagonals of tiles the hypotenuse crosses; on the outer
		// one every system inequality holds, so its slabs are the
		// interior tiles'.
		{"triangle", triangleSpec(), []int64{350}, 43, 3, 4},
		{"knap", problems.Knapsack().Spec, []int64{1000, 4000, 3}, 873, 4, 10},
	} {
		plan, _, boundary := fillShapes(t, tc.sp, tc.params)
		st := plan.ShapeStats()
		t.Logf("%s: %d boundary tiles, %+v", tc.name, boundary, st)
		if boundary != tc.boundaryTiles || st.Cells != tc.cellShapes || st.Slabs != tc.slabShapes {
			t.Errorf("%s: %d boundary tiles, %d cell shapes, %d slab shapes; want %d, %d, %d",
				tc.name, boundary, st.Cells, st.Slabs, tc.boundaryTiles, tc.cellShapes, tc.slabShapes)
		}
		if st.Walked != st.Rows {
			t.Errorf("%s: walked %d rows to intern %d", tc.name, st.Walked, st.Rows)
		}
	}
}

// TestRowsShapeBudget: on a spec whose boundary shapes are all distinct,
// a budget too small for them leaves the table under it, walks the
// tiles that did not fit on every replay, and changes no cell, slab
// element or length.
func TestRowsShapeBudget(t *testing.T) {
	params := []int64{100}
	plan, _, boundary := fillShapes(t, skewSpec(), params)
	if st := plan.ShapeStats(); st.Cells < boundary {
		t.Fatalf("%d boundary tiles in %d shapes: not all distinct", boundary, st.Cells)
	}
	tl, err := tiling.New(skewSpec())
	if err != nil {
		t.Fatal(err)
	}
	const budget = 20
	_, _, st, err := checkRowPlanBudget(tl, params, budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("budget %d rows: %+v", budget, st)
	if st.Rows > budget || st.Cells == 0 || st.Cells > boundary/2 {
		t.Errorf("budget %d rows: %d rows, %d of %d boundary shapes interned", budget, st.Rows, st.Cells, boundary)
	}
	if st.Walked <= st.Rows {
		t.Errorf("walked %d rows for %d interned: the tiles past the budget were not walked", st.Walked, st.Rows)
	}
}
