package tiling

import (
	"testing"

	"dpgen/internal/spec"
)

// levelSpecs returns the fixture specs whose tile graphs exercise the
// wavefront level: all-positive templates (bandit2), diagonal reach
// (diag2), and a mixed-sign template (negdep, one dimension executing
// downward).
func levelSpecs(t *testing.T) map[string]*spec.Spec {
	return map[string]*spec.Spec{
		"bandit2": bandit2(t, 3),
		"diag2":   diag2(t, 2),
		"negdep":  negdep(t),
	}
}

// TestTileLevelTopologicalOrder: the defining property of the
// wavefront level — every in-space producer of a tile has a strictly
// smaller level than the tile itself, so executing levels in ascending
// order is a valid schedule.
func TestTileLevelTopologicalOrder(t *testing.T) {
	for name, sp := range levelSpecs(t) {
		tl, err := New(sp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		params := []int64{9}
		probe := tl.NewProbe(params)
		d := len(sp.Vars)
		prod := make([]int64, d)
		checked := 0
		tl.ForEachTile(params, func(tile []int64) bool {
			lvl := tl.TileLevel(tile)
			for _, dep := range tl.TileDeps {
				for k := 0; k < d; k++ {
					prod[k] = tile[k] + dep.Offset[k]
				}
				if !probe.InSpace(prod) {
					continue
				}
				if pl := tl.TileLevel(prod); pl >= lvl {
					t.Fatalf("%s: producer %v level %d >= consumer %v level %d",
						name, prod, pl, tile, lvl)
				}
				checked++
			}
			return true
		})
		if checked == 0 {
			t.Errorf("%s: no tile dependences checked", name)
		}
	}
}
