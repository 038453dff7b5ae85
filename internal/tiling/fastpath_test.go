package tiling

import (
	"fmt"
	"testing"

	"dpgen/internal/spec"
)

// fastpathSpecs is the cross-section of geometries the fast path must
// classify correctly: the 4-D simplex, a square with a diagonal
// template, a negative-component template, and a non-unit-reach spec.
func fastpathSpecs(t *testing.T) map[string]*spec.Spec {
	return map[string]*spec.Spec{
		"bandit2": bandit2(t, 4),
		"diag2":   diag2(t, 5),
		"negdep":  negdep(t),
	}
}

// TestInteriorClassification: a tile is interior exactly when every
// cell of its full rectangle is in the space AND every template
// dependence is valid at every cell — checked by brute force.
func TestInteriorClassification(t *testing.T) {
	for name, sp := range fastpathSpecs(t) {
		tl, err := New(sp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The bandit simplex needs a larger N before any tile's whole
		// shell fits inside it.
		params := []int64{11}
		if name == "bandit2" {
			params = []int64{24}
		}
		pr := tl.NewProbe(params)
		d := len(sp.Vars)
		full := int64(1)
		for k := 0; k < d; k++ {
			full *= tl.Widths[k]
		}
		interiorSeen, boundarySeen := 0, 0
		specVals := make([]int64, tl.Spec.Space().N())
		copy(specVals, params)
		np := len(params)
		tl.ForEachTile(params, func(tile []int64) bool {
			// Brute-force ground truth over the full rectangle.
			want := tl.CellCount(params, tile) == full
			if want {
				tl.ForEachCell(params, tile, func(i []int64) bool {
					for k := 0; k < d; k++ {
						specVals[np+k] = i[k] + tl.Widths[k]*tile[k]
					}
					for j := range tl.Spec.Deps {
						if !tl.DepValid(j, specVals) {
							want = false
							return false
						}
					}
					return true
				})
			}
			got := pr.Interior(tile)
			if got != want {
				t.Errorf("%s: tile %v: Interior=%v, brute force says %v", name, tile, got, want)
			}
			if got {
				interiorSeen++
			} else {
				boundarySeen++
			}
			return true
		})
		if interiorSeen == 0 {
			t.Errorf("%s: no interior tiles at this size — test is vacuous", name)
		}
		if boundarySeen == 0 {
			t.Errorf("%s: no boundary tiles — test is vacuous", name)
		}
	}
}

// knapSpec is the bounded knapsack builtin's spec: one range template
// whose step along u is the parameter W, so its slabs depend on W.
func knapSpec() *spec.Spec {
	sp := spec.MustNew("knap", []string{"N", "C", "W"}, []string{"a", "u"})
	sp.MustConstrain("0 <= a <= N - 1")
	sp.MustConstrain("0 <= u <= C")
	sp.Bound("W", 1, 4)
	sp.MustAddDepSpec("take", "1, 0", "0, W", "4")
	sp.TileWidths = []int64{8, 8}
	return sp
}

// TestInteriorEdgeScans: for interior producers the run's dense pack
// (RowPlan.PackInterior) must produce exactly the PackNest sequence, and
// the run's slab size must be the PackNest count (and an upper bound for
// every producer, itself at most the bound-range size). knap at W = 1 and
// 3 packs less than its bound-range slabs.
func TestInteriorEdgeScans(t *testing.T) {
	type instance struct {
		name   string
		sp     *spec.Spec
		params []int64
	}
	var cases []instance
	for name, sp := range fastpathSpecs(t) {
		cases = append(cases, instance{name, sp, []int64{11}})
	}
	cases = append(cases, instance{"knap W=1", knapSpec(), []int64{20, 40, 1}}, instance{"knap W=3", knapSpec(), []int64{20, 40, 3}})
	for _, c := range cases {
		name, params := c.name, c.params
		tl, err := New(c.sp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plan := tl.BindRows(params)
		pr := plan.NewProbe()
		buf := make([]float64, tl.AllocLen)
		for i := range buf {
			buf[i] = float64(i) // distinct value per buffer slot
		}
		for j := range tl.TileDeps {
			if plan.InteriorEdgeSize(j) > tl.InteriorEdgeSize[j] {
				t.Fatalf("%s: dep %d: run slab %d exceeds the bound-range slab %d", name, j, plan.InteriorEdgeSize(j), tl.InteriorEdgeSize[j])
			}
		}
		tl.ForEachTile(params, func(tile []int64) bool {
			for j := range tl.TileDeps {
				nestN, size := tl.EdgeSize(params, tile, j), plan.InteriorEdgeSize(j)
				if nestN > size {
					t.Fatalf("%s: tile %v dep %d: nest edge %d exceeds dense bound %d",
						name, tile, j, nestN, size)
				}
				if !pr.Interior(tile) {
					continue
				}
				if nestN != size {
					t.Fatalf("%s: interior tile %v dep %d: nest edge %d != dense %d",
						name, tile, j, nestN, size)
				}
				var nest []float64
				tl.ForEachEdgeCell(params, tile, j, func(i []int64) bool {
					nest = append(nest, buf[tl.Loc(i)])
					return true
				})
				dense := make([]float64, size)
				plan.PackInterior(j, buf, dense)
				for x := range nest {
					if nest[x] != dense[x] {
						t.Fatalf("%s: interior tile %v dep %d: pack order diverges at %d", name, tile, j, x)
					}
				}
				// Unpack must land each value at UnpackLoc of its cell.
				shell := make([]float64, tl.AllocLen)
				plan.UnpackInterior(j, shell, dense)
				x := 0
				tl.ForEachEdgeCell(params, tile, j, func(i []int64) bool {
					if got := shell[tl.UnpackLoc(j, i)]; got != dense[x] {
						t.Fatalf("%s: tile %v dep %d: unpack cell %d landed wrong (%v != %v)",
							name, tile, j, x, got, dense[x])
					}
					x++
					return true
				})
			}
			return true
		})
	}
}

// TestTileBoundsBox: TileBounds must cover every enumerated tile, and
// the probe queries must agree with their allocating counterparts.
func TestTileBoundsBox(t *testing.T) {
	for name, sp := range fastpathSpecs(t) {
		tl, err := New(sp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		params := []int64{13}
		lo, hi := tl.TileBounds(params)
		pr := tl.NewProbe(params)
		seen := int64(0)
		tl.ForEachTile(params, func(tile []int64) bool {
			seen++
			for k := range tile {
				if tile[k] < lo[k] || tile[k] > hi[k] {
					t.Fatalf("%s: tile %v outside TileBounds [%v, %v]", name, tile, lo, hi)
				}
			}
			if !pr.InSpace(tile) {
				t.Fatalf("%s: probe rejects enumerated tile %v", name, tile)
			}
			if got, want := pr.DepCount(tile), tl.DepCount(params, tile); got != want {
				t.Fatalf("%s: tile %v: probe DepCount %d != %d", name, tile, got, want)
			}
			return true
		})
		if seen == 0 {
			t.Fatalf("%s: no tiles", name)
		}
		// The box must be reasonably tight: each bound is attained.
		for k := range lo {
			attainedLo, attainedHi := false, false
			tl.ForEachTile(params, func(tile []int64) bool {
				if tile[k] == lo[k] {
					attainedLo = true
				}
				if tile[k] == hi[k] {
					attainedHi = true
				}
				return !(attainedLo && attainedHi)
			})
			if !attainedLo || !attainedHi {
				t.Errorf("%s: dim %d bound [%d,%d] not attained", name, k, lo[k], hi[k])
			}
		}
	}
}

func ExampleTiling_TileBounds() {
	sp := spec.MustNew("grid", []string{"N"}, []string{"x", "y"})
	sp.MustConstrain("0 <= x <= N")
	sp.MustConstrain("0 <= y <= N")
	sp.AddDep("right", 1, 0)
	sp.AddDep("down", 0, 1)
	sp.TileWidths = []int64{4, 4}
	tl, err := New(sp)
	if err != nil {
		panic(err)
	}
	lo, hi := tl.TileBounds([]int64{10})
	fmt.Println(lo, hi)
	// Output: [0 0] [2 2]
}

// TestBindSlabsSharesBoundRange: a run whose slab boxes are the
// tiling's (knap at W = 4, its bound) shares the tiling's spans and
// sizes and binds them without allocating; a run at W = 3 gets its own
// for the two slabs W shrinks and shares the rest.
func TestBindSlabsSharesBoundRange(t *testing.T) {
	tl, err := New(knapSpec())
	if err != nil {
		t.Fatal(err)
	}
	p := tl.BindRows([]int64{20, 40, 4})
	if &p.edgeSize[0] != &tl.InteriorEdgeSize[0] || &p.slabs[0] != &tl.interiorSlab[0] {
		t.Error("W = 4: the run's slabs are not the tiling's")
	}
	if allocs := testing.AllocsPerRun(100, func() { p.bindSlabs([]int64{20, 40, 4}) }); allocs != 0 {
		t.Errorf("W = 4: binding the slabs allocated %v times", allocs)
	}
	p = tl.BindRows([]int64{20, 40, 3})
	for j := range tl.TileDeps {
		shared := len(p.slabs[j]) > 0 && &p.slabs[j][0] == &tl.interiorSlab[j][0]
		if want := j != 1 && j != 4; shared != want {
			t.Errorf("W = 3: dep %d (offset %v) shares the tiling's spans: %v, want %v", j, tl.TileDeps[j].Offset, shared, want)
		}
	}
}
