package tiling_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dpgen/internal/ints"
	"dpgen/internal/problems"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// footprintSample caps the interior and the boundary consumer tiles
// checkFootprint walks per instance, spread evenly over the tile order.
const footprintSample = 12

// checkFootprint walks sampled consumer tiles cell by cell through every
// template and checks each producer cell read against the slabs: it must
// lie in the slab that its producer packs for the tile dependence whose
// offset joins the two tiles, as ForEachEdgeCell enumerates it. On an
// interior consumer, where every template is valid at every cell, the
// run's slab size (RowPlan.InteriorEdgeSize) must be the bounding box of
// the cells read: along each dimension k, the local indices read from
// every producer whose offset along k is the tile dependence's. A slab is
// a box with one extent per dimension and offset, taken over all
// templates, so a dependence that only some templates cross can hold
// cells that none of them reads (lcs3's (1,1,0) slab holds 8 cells, its
// diagonal template reads 7); along every dimension the extent is exact.
// It returns the run's slab sizes and how many interior tiles it walked.
func checkFootprint(t *testing.T, name string, tl *tiling.Tiling, params []int64) (sizes []int64, interiors int) {
	t.Helper()
	plan, probe := tl.BindRows(params), tl.NewProbe(params)
	sizes = make([]int64, len(tl.TileDeps))
	for j := range sizes {
		sizes[j] = plan.InteriorEdgeSize(j)
		if sizes[j] > tl.InteriorEdgeSize[j] {
			t.Errorf("%s: dep %d: run slab %d exceeds the bound-range slab %d", name, j, sizes[j], tl.InteriorEdgeSize[j])
		}
	}
	var interior, boundary [][]int64
	tl.ForEachTile(params, func(c []int64) bool {
		if probe.Interior(c) {
			interior = append(interior, slices.Clone(c))
		} else {
			boundary = append(boundary, slices.Clone(c))
		}
		return true
	})
	if len(boundary) == 0 {
		t.Fatalf("%s: no boundary tile", name)
	}
	sp, d, np := tl.Spec, len(tl.Spec.Vars), len(params)
	vals := make([]int64, sp.Space().N())
	copy(vals, params)
	bases, dirs := make([][]int64, len(sp.Deps)), make([][]int64, len(sp.Deps))
	for j := range sp.Deps {
		bases[j], dirs[j] = sp.BaseAt(j, params), sp.DirAt(j, params)
	}
	depOf := map[string]int{}
	for j, td := range tl.TileDeps {
		depOf[fmt.Sprint(td.Offset)] = j
	}
	check := func(c []int64, isInterior bool) {
		// reads[j] holds the producer-local cells read along tile
		// dependence j; ext[k][o] bounds the local indices along k read
		// from producers at offset o along k.
		reads := make([][][]int64, len(tl.TileDeps))
		ext := make([]map[int64][2]int64, d)
		for k := range ext {
			ext[k] = map[int64][2]int64{}
		}
		read := func(y []int64) {
			p, local := tl.TileOf(y)
			if slices.Equal(p, c) {
				return
			}
			off := make([]int64, d)
			for k := range off {
				off[k] = p[k] - c[k]
			}
			j, ok := depOf[fmt.Sprint(off)]
			if !ok {
				t.Fatalf("%s: consumer %v reads %v in tile %v: no tile dependence %v", name, c, y, p, off)
			}
			reads[j] = append(reads[j], local)
			for k, v := range local {
				e, seen := ext[k][off[k]]
				if !seen {
					e = [2]int64{v, v}
				}
				ext[k][off[k]] = [2]int64{ints.Min(e[0], v), ints.Max(e[1], v)}
			}
		}
		tl.ForEachCell(params, c, func(i []int64) bool {
			x := tl.GlobalOf(c, i)
			copy(vals[np:], x)
			y := make([]int64, d)
			for j := range sp.Deps {
				n := tl.DepLenAt(j, vals)
				if !sp.Deps[j].IsRange() {
					n = min(n, 1)
				}
				for s := int64(0); s < n; s++ {
					for k := range y {
						y[k] = x[k] + bases[j][k] + s*dirs[j][k]
					}
					read(y)
				}
			}
			return true
		})
		for j := range tl.TileDeps {
			if len(reads[j]) > 0 {
				p := make([]int64, d)
				for k := range p {
					p[k] = c[k] + tl.TileDeps[j].Offset[k]
				}
				slab := map[string]bool{}
				tl.ForEachEdgeCell(params, p, j, func(i []int64) bool {
					slab[fmt.Sprint(i)] = true
					return true
				})
				for _, cell := range reads[j] {
					if !slab[fmt.Sprint(cell)] {
						t.Fatalf("%s: consumer %v reads producer %v cell %v along dep %d: not in the packed slab", name, c, p, cell, j)
					}
				}
			}
			if !isInterior {
				continue
			}
			box := int64(1)
			for k, o := range tl.TileDeps[j].Offset {
				if e, seen := ext[k][o]; seen {
					box *= e[1] - e[0] + 1
				} else {
					box = 0
				}
			}
			if box != sizes[j] {
				t.Errorf("%s: interior consumer %v dep %d: cells read span a box of %d, run slab %d", name, c, j, box, sizes[j])
			}
		}
	}
	sample := func(tiles [][]int64, isInterior bool) (n int) {
		step := max(1, len(tiles)/footprintSample)
		for i := 0; i < len(tiles); i += step {
			check(tiles[i], isInterior)
			n++
		}
		return n
	}
	sample(boundary, false)
	return sizes, sample(interior, true)
}

// TestSlabFootprint runs checkFootprint on every builtin at its default
// parameters, every specs/*.dps file, and knap at each W its bounds
// allow, whose run slabs it pins: W reaches 3W cells along u, so the
// (0,·) slabs shrink with W, and no template reaches a's low row.
func TestSlabFootprint(t *testing.T) {
	for _, name := range problems.Names() {
		p, err := problems.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tl, err := tiling.New(p.Spec)
		if err != nil {
			t.Fatal(err)
		}
		_, n := checkFootprint(t, name, tl, p.DefaultParams)
		t.Logf("%s: %d interior tiles", name, n)
	}
	files, err := filepath.Glob("../../specs/*.dps")
	if err != nil || len(files) == 0 {
		t.Fatalf("no spec files: %v", err)
	}
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spec.Parse(string(text))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		params := []int64{37}
		if p, err := problems.Get(sp.Name); err == nil {
			params = p.DefaultParams
		}
		tl, err := tiling.New(sp)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		_, n := checkFootprint(t, filepath.Base(path), tl, params)
		t.Logf("%s: %d interior tiles", path, n)
	}
	p, err := problems.Get("knap")
	if err != nil {
		t.Fatal(err)
	}
	tl, err := tiling.New(p.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{56, 28, 8, 8, 4}; !slices.Equal(tl.InteriorEdgeSize, want) {
		t.Errorf("knap: bound-range slabs %v, want %v", tl.InteriorEdgeSize, want)
	}
	for w, want := range [][]int64{{21, 0, 8, 3, 0}, {42, 0, 8, 6, 0}, {56, 7, 8, 8, 1}, {56, 28, 8, 8, 4}} {
		name := fmt.Sprintf("knap W=%d", w+1)
		got, interiors := checkFootprint(t, name, tl, []int64{20, 60, int64(w + 1)})
		if !slices.Equal(got, want) {
			t.Errorf("%s: run slabs %v, want %v", name, got, want)
		}
		if interiors == 0 {
			t.Errorf("%s: no interior tile: the slab sizes went unchecked", name)
		}
	}
}
