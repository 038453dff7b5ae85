package engine

import (
	"fmt"
	"sync"
	"testing"

	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// slackGrid is pipe2's square grid with a second parameter M that only
// appears in the slack constraint x + y <= M: any M >= 2N describes the
// same space, so M can be inflated past the row plan's overflow proof
// without changing a single cell.
func slackGrid(t testing.TB) *tiling.Tiling {
	t.Helper()
	sp := spec.MustNew("slackgrid", []string{"N", "M"}, []string{"x", "y"})
	sp.MustConstrain("0 <= x <= N")
	sp.MustConstrain("0 <= y <= N")
	sp.MustConstrain("x + y <= M")
	sp.AddDep("r", 1, 0)
	sp.AddDep("d", 0, 1)
	sp.TileWidths = []int64{2, 2}
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// sumSerial is sumKernel's recurrence with plain loops: the number of
// monotone lattice paths, a value that overflows nothing at N = 15 and
// differs in every cell.
func sumSerial(N int64) map[[2]int64]float64 {
	tab := map[[2]int64]float64{}
	for x := N; x >= 0; x-- {
		for y := N; y >= 0; y-- {
			v := 1.0
			if x < N {
				v += tab[[2]int64{x + 1, y}]
			}
			if y < N {
				v += tab[[2]int64{x, y + 1}]
			}
			tab[[2]int64{x, y}] = v
		}
	}
	return tab
}

// TestRowsOverflowTakesCheckedPath: parameters that defeat the row
// plan's overflow proof (every checked evaluation still fits int64)
// must run the whole job on the checked reference path — as if
// DisableFastPath were set, so no static tiles either — and still match
// the serial table cell for cell.
func TestRowsOverflowTakesCheckedPath(t *testing.T) {
	tl := slackGrid(t)
	const N = 15
	want := sumSerial(N)
	for _, tc := range []struct {
		M        int64
		rowPath  bool
		scenario string
	}{
		{2 * N, true, "proof holds"},
		{3 << 61, false, "proof fails"},
	} {
		params := []int64{N, tc.M}
		if ok := tl.BindRows(params).OK(); ok != tc.rowPath {
			t.Fatalf("%s: BindRows(%v).OK() = %v", tc.scenario, params, ok)
		}
		var mu sync.Mutex
		got := map[[2]int64]float64{}
		res, err := Run(tl, sumKernel, params, Config{Threads: 2, OnCell: func(x []int64, v float64) {
			mu.Lock()
			got[[2]int64{x[0], x[1]}] = v
			mu.Unlock()
		}})
		if err != nil {
			t.Fatalf("%s: %v", tc.scenario, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d cells computed, want %d", tc.scenario, len(got), len(want))
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("%s: cell %v = %v, serial %v", tc.scenario, k, got[k], w)
			}
		}
		if res.Value != want[[2]int64{0, 0}] {
			t.Errorf("%s: Value %v, serial %v", tc.scenario, res.Value, want[[2]int64{0, 0}])
		}
		if static := res.Stats[0].StaticTiles; (static > 0) != tc.rowPath {
			t.Errorf("%s: %d static tiles", tc.scenario, static)
		}
	}
}

// cellTrace records everything a kernel can observe at one cell.
func cellTrace(c *Ctx) string {
	return fmt.Sprint(c.X, c.I, c.Loc, c.DepLoc, c.DepValid, c.DepLen, c.DepStride, c.P)
}

// TestRowsCellOrderMatchesEnumerator: on one worker the tile order is
// deterministic, so the row path and the checked enumerator must show
// the kernel — and OnCell — the same cells in the same order with the
// same X, I, locations, validity flags and lengths. Covered: the 4-D
// simplex (descending rows cut short by the diagonal), a square grid
// with interior tiles, and a range template whose lengths vary along a
// row and clamp at the boundary.
func TestRowsCellOrderMatchesEnumerator(t *testing.T) {
	type fixture struct {
		tl     *tiling.Tiling
		kernel Kernel
		params []int64
	}
	prefix := spec.MustNew("prefixsum", []string{"N"}, []string{"x", "y"})
	prefix.MustConstrain("0 <= x <= N")
	prefix.MustConstrain("0 <= y <= N")
	prefix.MustConstrain("x + 2*y <= 2*N")
	prefix.Bound("N", 1, 24)
	prefix.AddDep("up", 1, 0)
	prefix.MustAddDepSpec("row", "0, 1", "0, 1", "N - y")
	prefix.TileWidths = []int64{3, 4}
	prefixTl, err := tiling.New(prefix)
	if err != nil {
		t.Fatal(err)
	}
	prefixKernel := func(c *Ctx) {
		v := float64(c.X[0] + 1)
		if c.DepValid[0] {
			v += c.V[c.DepLoc[0]]
		}
		for k := int64(0); k < c.DepLen[1]; k++ {
			v += c.V[c.DepLoc[1]+k*c.DepStride[1]] / 2
		}
		c.V[c.Loc] = v
	}
	for name, fx := range map[string]fixture{
		"bandit2": {bandit2Tiling(t, 4, nil), bandit2Kernel, []int64{13}},
		"pipe2":   {pipe2(t, 8), sumKernel, []int64{15}},
		"range":   {prefixTl, prefixKernel, []int64{11}},
	} {
		record := func(disable bool) (seen []string, res *Result) {
			res, err := Run(fx.tl, func(c *Ctx) {
				fx.kernel(c)
				seen = append(seen, cellTrace(c))
			}, fx.params, Config{DisableFastPath: disable, OnCell: func(x []int64, v float64) {
				seen = append(seen, fmt.Sprint("oncell ", x, v))
			}})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return seen, res
		}
		rows, fast := record(false)
		ref, slow := record(true)
		if fast.Value != slow.Value || len(rows) != len(ref) {
			t.Fatalf("%s: row path %v over %d events, enumerator %v over %d",
				name, fast.Value, len(rows), slow.Value, len(ref))
		}
		for i := range ref {
			if rows[i] != ref[i] {
				t.Fatalf("%s: event %d: row path %s, enumerator %s", name, i, rows[i], ref[i])
			}
		}
	}
}
