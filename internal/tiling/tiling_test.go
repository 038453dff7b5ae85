package tiling

import (
	"fmt"
	"slices"
	"testing"

	"dpgen/internal/spec"
)

// bandit2 builds the paper's Section II spec with tile width w.
func bandit2(t testing.TB, w int64) *spec.Spec {
	t.Helper()
	sp := spec.MustNew("bandit2", []string{"N"}, []string{"s1", "f1", "s2", "f2"})
	sp.MustConstrain("s1 + f1 + s2 + f2 <= N")
	for _, v := range sp.Vars {
		sp.MustConstrain(v + " >= 0")
	}
	sp.AddDep("r1", 1, 0, 0, 0)
	sp.AddDep("r2", 0, 1, 0, 0)
	sp.AddDep("r3", 0, 0, 1, 0)
	sp.AddDep("r4", 0, 0, 0, 1)
	sp.TileWidths = []int64{w, w, w, w}
	return sp
}

// diag2 is a 2-D problem with a diagonal template (LCS-like): deps
// <1,0>, <0,1>, <1,1> on the square [0,N]^2.
func diag2(t testing.TB, w int64) *spec.Spec {
	t.Helper()
	sp := spec.MustNew("diag2", []string{"N"}, []string{"x", "y"})
	sp.MustConstrain("0 <= x <= N")
	sp.MustConstrain("0 <= y <= N")
	sp.AddDep("right", 1, 0)
	sp.AddDep("down", 0, 1)
	sp.AddDep("diag", 1, 1)
	sp.TileWidths = []int64{w, w}
	return sp
}

// negdep has a negative template component: f(x,y) depends on f(x-2, y+1).
func negdep(t testing.TB) *spec.Spec {
	t.Helper()
	sp := spec.MustNew("negdep", []string{"N"}, []string{"x", "y"})
	sp.MustConstrain("0 <= x <= N")
	sp.MustConstrain("0 <= y <= N")
	sp.AddDep("a", -2, 1)
	sp.AddDep("b", 0, 1)
	sp.TileWidths = []int64{4, 4}
	return sp
}

func TestGeometryBandit(t *testing.T) {
	tl, err := New(bandit2(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	// Reach is 1 on the high side in every dim, 0 low.
	for k := 0; k < 4; k++ {
		if tl.GhostHi[k] != 1 || tl.GhostLo[k] != 0 {
			t.Errorf("ghost[%d] = lo %d hi %d", k, tl.GhostLo[k], tl.GhostHi[k])
		}
		if tl.Alloc[k] != 7 {
			t.Errorf("alloc[%d] = %d, want 7", k, tl.Alloc[k])
		}
	}
	if tl.AllocLen != 7*7*7*7 {
		t.Errorf("AllocLen = %d", tl.AllocLen)
	}
	// Innermost loop var f2 has stride 1 (Fig 3 memory layout).
	if tl.Strides[3] != 1 || tl.Strides[2] != 7 || tl.Strides[1] != 49 || tl.Strides[0] != 343 {
		t.Errorf("Strides = %v", tl.Strides)
	}
	// Mapping functions: constant offsets per dependence.
	for j := 0; j < 4; j++ {
		if tl.DepLocOff[j] != tl.Strides[j] {
			t.Errorf("DepLocOff[%d] = %d, want %d", j, tl.DepLocOff[j], tl.Strides[j])
		}
	}
}

func TestTilePartition(t *testing.T) {
	// The tiles partition the iteration space exactly: every point appears
	// in exactly one tile's cell scan.
	for _, tc := range []struct {
		sp *spec.Spec
		N  int64
	}{
		{bandit2(t, 3), 7},
		{diag2(t, 4), 9},
		{negdep(t), 6},
	} {
		tl, err := New(tc.sp)
		if err != nil {
			t.Fatalf("%s: %v", tc.sp.Name, err)
		}
		params := []int64{tc.N}
		seen := map[string]int{}
		tl.ForEachTile(params, func(tile []int64) bool {
			tcopy := append([]int64(nil), tile...)
			tl.ForEachCell(params, tcopy, func(i []int64) bool {
				x := tl.GlobalOf(tcopy, i)
				seen[fmt.Sprint(x)]++
				// Cell must map back to this tile.
				bt, bl := tl.TileOf(x)
				for k := range bt {
					if bt[k] != tcopy[k] || bl[k] != i[k] {
						t.Fatalf("%s: TileOf(%v) = %v/%v, want %v/%v", tc.sp.Name, x, bt, bl, tcopy, i)
					}
				}
				return true
			})
			return true
		})
		// Compare against direct enumeration of the spec system.
		sys := tc.sp.System()
		var want int
		enumerateBox(len(tc.sp.Vars), tc.N, func(x []int64) {
			vals := append([]int64{tc.N}, x...)
			if sys.Contains(vals) {
				want++
				if seen[fmt.Sprint(x)] != 1 {
					t.Fatalf("%s: point %v covered %d times", tc.sp.Name, x, seen[fmt.Sprint(x)])
				}
			}
		})
		if len(seen) != want {
			t.Errorf("%s: covered %d points, want %d", tc.sp.Name, len(seen), want)
		}
	}
}

func enumerateBox(d int, N int64, visit func(x []int64)) {
	x := make([]int64, d)
	var rec func(int)
	rec = func(k int) {
		if k == d {
			visit(x)
			return
		}
		for v := int64(0); v <= N; v++ {
			x[k] = v
			rec(k + 1)
		}
	}
	rec(0)
}

func TestTileDepsBandit(t *testing.T) {
	tl, err := New(bandit2(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	// Four axis-aligned unit templates produce exactly 4 tile deps.
	if len(tl.TileDeps) != 4 {
		t.Fatalf("TileDeps = %d, want 4", len(tl.TileDeps))
	}
	for _, td := range tl.TileDeps {
		nz := 0
		for _, o := range td.Offset {
			if o != 0 {
				nz++
			}
		}
		if nz != 1 {
			t.Errorf("unexpected offset %v", td.Offset)
		}
	}
}

func TestTileDepsDiagonal(t *testing.T) {
	tl, err := New(diag2(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Section IV-F: template <1,1> triggers deps <1,0>, <0,1>, <1,1>.
	want := map[string]bool{"[1 0]": true, "[0 1]": true, "[1 1]": true}
	if len(tl.TileDeps) != 3 {
		t.Fatalf("TileDeps = %d, want 3: %+v", len(tl.TileDeps), tl.TileDeps)
	}
	for _, td := range tl.TileDeps {
		if !want[fmt.Sprint(td.Offset)] {
			t.Errorf("unexpected offset %v", td.Offset)
		}
	}
}

func TestTileDepsNegative(t *testing.T) {
	tl, err := New(negdep(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"[-1 0]": true, "[0 1]": true, "[-1 1]": true}
	for _, td := range tl.TileDeps {
		if !want[fmt.Sprint(td.Offset)] {
			t.Errorf("unexpected offset %v", td.Offset)
		}
	}
	if len(tl.TileDeps) != 3 {
		t.Errorf("TileDeps = %d, want 3", len(tl.TileDeps))
	}
}

// TestEdgeCoverage is the critical runtime invariant: every cross-tile
// template access lands in a producer cell that the producer's pack nest
// enumerates, and UnpackLoc writes it where the consumer's mapping
// function (loc + DepLocOff) reads it.
func TestEdgeCoverage(t *testing.T) {
	for _, tc := range []struct {
		sp *spec.Spec
		N  int64
	}{
		{bandit2(t, 3), 7},
		{diag2(t, 4), 9},
		{negdep(t), 6},
	} {
		tl, err := New(tc.sp)
		if err != nil {
			t.Fatalf("%s: %v", tc.sp.Name, err)
		}
		params := []int64{tc.N}
		sys := tc.sp.System()
		d := len(tc.sp.Vars)

		// Precompute each tile's packed edges: dep -> producer tile ->
		// map from consumer buffer index (via UnpackLoc) to producer global point.
		type edgeKey struct {
			tile string
			dep  int
		}
		packed := map[edgeKey]map[int64]string{}
		tl.ForEachTile(params, func(tile []int64) bool {
			tcopy := append([]int64(nil), tile...)
			for j := range tl.TileDeps {
				m := map[int64]string{}
				tl.ForEachEdgeCell(params, tcopy, j, func(i []int64) bool {
					m[tl.UnpackLoc(j, i)] = fmt.Sprint(tl.GlobalOf(tcopy, i))
					return true
				})
				packed[edgeKey{fmt.Sprint(tcopy), j}] = m
			}
			return true
		})

		specVals := make([]int64, tc.sp.Space().N())
		specVals[0] = tc.N
		tl.ForEachTile(params, func(tile []int64) bool {
			tcopy := append([]int64(nil), tile...)
			tl.ForEachCell(params, tcopy, func(i []int64) bool {
				x := tl.GlobalOf(tcopy, i)
				copy(specVals[1:], x)
				for j, dep := range tc.sp.Deps {
					// Validity must agree with direct membership of x + r.
					xr := make([]int64, d)
					for k := range xr {
						xr[k] = x[k] + dep.Vec[k]
					}
					direct := sys.Contains(append([]int64{tc.N}, xr...))
					if got := tl.DepValid(j, specVals); got != direct {
						t.Fatalf("%s: DepValid(%s at %v) = %v, direct = %v", tc.sp.Name, dep.Name, x, got, direct)
					}
					if !direct {
						continue
					}
					// Where does x + r live?
					rt, rl := tl.TileOf(xr)
					same := true
					off := make([]int64, d)
					for k := range rt {
						off[k] = rt[k] - tcopy[k]
						if off[k] != 0 {
							same = false
						}
					}
					readLoc := tl.Loc(i) + tl.DepLocOff[j]
					if same {
						if readLoc != tl.Loc(rl) {
							t.Fatalf("%s: in-tile mapping wrong at %v dep %s", tc.sp.Name, x, dep.Name)
						}
						continue
					}
					// Cross-tile: find the tile dep with this offset.
					dj := -1
					for jj, td := range tl.TileDeps {
						match := true
						for k := range off {
							if td.Offset[k] != off[k] {
								match = false
								break
							}
						}
						if match {
							dj = jj
							break
						}
					}
					if dj < 0 {
						t.Fatalf("%s: access %v -> %v crosses offset %v with no tile dep", tc.sp.Name, x, xr, off)
					}
					m := packed[edgeKey{fmt.Sprint(rt), dj}]
					got, ok := m[readLoc]
					if !ok {
						t.Fatalf("%s: consumer read loc %d (x=%v dep=%s) not packed by producer %v dep %v",
							tc.sp.Name, readLoc, x, dep.Name, rt, tl.TileDeps[dj].Offset)
					}
					if got != fmt.Sprint(xr) {
						t.Fatalf("%s: unpack mismatch: loc %d holds %v, want %v", tc.sp.Name, readLoc, got, xr)
					}
				}
				return true
			})
			return true
		})
	}
}

func TestInitialTiles(t *testing.T) {
	tl, err := New(bandit2(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	params := []int64{7}
	initial, total := tl.InitialTiles(params)
	if total != tl.TileCount(params) {
		t.Errorf("total = %d, TileCount = %d", total, tl.TileCount(params))
	}
	if len(initial) == 0 {
		t.Fatal("no initial tiles")
	}
	for _, tile := range initial {
		if tl.DepCount(params, tile) != 0 {
			t.Errorf("initial tile %v has deps", tile)
		}
	}
	// Initial tiles must be a strict minority for a real problem.
	if int64(len(initial)) >= total {
		t.Errorf("all %d tiles initial", total)
	}
}

func TestGoalTile(t *testing.T) {
	tl, err := New(bandit2(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	gt, gl := tl.GoalTile()
	for k := range gt {
		if gt[k] != 0 || gl[k] != 0 {
			t.Errorf("goal tile/local = %v/%v", gt, gl)
		}
	}
}

func TestCellCountsSumToSpaceSize(t *testing.T) {
	tl, err := New(bandit2(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	N := int64(9)
	params := []int64{N}
	var total int64
	tl.ForEachTile(params, func(tile []int64) bool {
		total += tl.CellCount(params, tile)
		return true
	})
	want := (N + 1) * (N + 2) * (N + 3) * (N + 4) / 24
	if total != want {
		t.Errorf("cells = %d, want %d", total, want)
	}
}

func TestEdgeSizeBanditScaling(t *testing.T) {
	// Section IV-I: a full interior edge of the 2-arm bandit is w^3 cells
	// while the tile is w^4.
	w := int64(4)
	tl, err := New(bandit2(t, w))
	if err != nil {
		t.Fatal(err)
	}
	N := int64(31)
	params := []int64{N}
	// Find a full interior tile: all cells present.
	var interior []int64
	tl.ForEachTile(params, func(tile []int64) bool {
		if tl.CellCount(params, tile) == w*w*w*w {
			interior = append([]int64(nil), tile...)
			return false
		}
		return true
	})
	if interior == nil {
		t.Fatal("no interior tile found")
	}
	for j := range tl.TileDeps {
		if got := tl.EdgeSize(params, interior, j); got != w*w*w {
			t.Errorf("edge %v size = %d, want %d", tl.TileDeps[j].Offset, got, w*w*w)
		}
	}
}

func TestTileOfNegativeCoords(t *testing.T) {
	tl, err := New(diag2(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	tile, local := tl.TileOf([]int64{-1, 5})
	if tile[0] != -1 || local[0] != 3 || tile[1] != 1 || local[1] != 1 {
		t.Errorf("TileOf(-1,5) = %v/%v", tile, local)
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	sp := spec.MustNew("bad", []string{"N"}, []string{"x"})
	sp.MustConstrain("x >= 0") // unbounded above
	sp.AddDep("r1", 1)
	if _, err := New(sp); err == nil {
		t.Error("unbounded space should fail")
	}
}

// TestCellOrderRespectsDeps: within a tile, every valid in-tile template
// access must target a cell enumerated earlier by ForEachCell.
func TestCellOrderRespectsDeps(t *testing.T) {
	for _, tc := range []struct {
		sp *spec.Spec
		N  int64
	}{
		{bandit2(t, 3), 7},
		{diag2(t, 4), 9},
		{negdep(t), 6},
	} {
		tl, err := New(tc.sp)
		if err != nil {
			t.Fatalf("%s: %v", tc.sp.Name, err)
		}
		params := []int64{tc.N}
		d := len(tc.sp.Vars)
		tl.ForEachTile(params, func(tile []int64) bool {
			tcopy := append([]int64(nil), tile...)
			seen := map[string]bool{}
			tl.ForEachCell(params, tcopy, func(i []int64) bool {
				for _, dep := range tc.sp.Deps {
					tgt := make([]int64, d)
					inTile := true
					for k := range tgt {
						tgt[k] = i[k] + dep.Vec[k]
						if tgt[k] < 0 || tgt[k] >= tl.Widths[k] {
							inTile = false
						}
					}
					if !inTile {
						continue
					}
					// Only care if the target is a real cell of this tile.
					x := tl.GlobalOf(tcopy, tgt)
					vals := append([]int64{tc.N}, x...)
					if !tc.sp.System().Contains(vals) {
						continue
					}
					if !seen[fmt.Sprint(tgt)] {
						t.Fatalf("%s tile %v: cell %v computed before its dep %v (+%v)",
							tc.sp.Name, tcopy, i, tgt, dep.Vec)
					}
				}
				seen[fmt.Sprint(i)] = true
				return true
			})
			return true
		})
	}
}

// TestLBSpacesDirect exercises the load-balancing slab counts directly:
// slab works and slab tile counts must partition the totals, come in
// lexicographic order, and agree tile by tile with the checked nest.
func TestLBSpacesDirect(t *testing.T) {
	sp := bandit2(t, 4)
	sp.LBDims = []string{"s1", "f1"}
	tl, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := tl.LBIndices(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("LBIndices = %v", got)
	}
	params := []int64{14}
	key, err := tl.NewLBKey(params)
	if err != nil {
		t.Fatal(err)
	}
	slabs, _ := tl.Slabs(params, key, nil)
	if len(slabs) == 0 {
		t.Fatal("no lb cells")
	}
	var works, tiles int64
	for i, s := range slabs {
		works += s.Work
		tiles += s.Tiles
		if i > 0 && (slices.Compare(slabs[i-1].LB, s.LB) >= 0 || key.OfLB(slabs[i-1].LB) >= key.OfLB(s.LB)) {
			t.Errorf("slabs %v, %v out of lexicographic order", slabs[i-1].LB, s.LB)
		}
	}
	wantWork := (params[0] + 1) * (params[0] + 2) * (params[0] + 3) * (params[0] + 4) / 24
	if works != wantWork {
		t.Errorf("slab works sum to %d, want %d", works, wantWork)
	}
	if want := tl.TileCount(params); tiles != want {
		t.Errorf("slab tiles sum to %d, want %d", tiles, want)
	}
	// Each slab against the checked local nest, tile by tile.
	work := map[uint64]int64{}
	tl.ForEachTile(params, func(tile []int64) bool {
		k, ok := key.Of(tile)
		if !ok {
			t.Fatalf("tile %v outside the key's box", tile)
		}
		work[k] += tl.CellCount(params, tile)
		return true
	})
	for _, s := range slabs {
		if got := work[key.OfLB(s.LB)]; got != s.Work {
			t.Errorf("slab %v: work %d, checked nest counts %d", s.LB, s.Work, got)
		}
	}
	if _, ok := key.Of([]int64{-1, 0, 0, 0}); ok {
		t.Error("a tile outside the bounding box got a key")
	}
	// LBCoords extraction.
	lb := tl.LBCoords([]int64{3, 1, 2, 0}, nil)
	if lb[0] != 3 || lb[1] != 1 {
		t.Errorf("LBCoords = %v", lb)
	}
	dst := make([]int64, 2)
	if got := tl.LBCoords([]int64{5, 4, 0, 0}, dst); &got[0] != &dst[0] || got[0] != 5 {
		t.Error("LBCoords dst reuse broken")
	}
}

// TestAllDimsLoadBalanced: with every dimension load-balanced each slab
// is one tile.
func TestAllDimsLoadBalanced(t *testing.T) {
	sp := diag2(t, 4)
	sp.LBDims = []string{"x", "y"}
	tl, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	params := []int64{9}
	key, err := tl.NewLBKey(params)
	if err != nil {
		t.Fatal(err)
	}
	var tiles int64
	slabs, _ := tl.Slabs(params, key, nil)
	for _, s := range slabs {
		if s.Tiles != 1 {
			t.Fatalf("slab %v has %d tiles with all dims balanced", s.LB, s.Tiles)
		}
		tiles++
	}
	if want := tl.TileCount(params); tiles != want {
		t.Errorf("tiles %d, want %d", tiles, want)
	}
}
