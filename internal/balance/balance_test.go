package balance

import (
	"testing"

	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

func bandit2Tiling(t testing.TB, w int64, lb []string) *tiling.Tiling {
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
	sp.LBDims = lb
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestWorkConservation(t *testing.T) {
	// Per-node work must sum to the total work, which must equal the
	// iteration-space size, for both methods and several node counts.
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	N := int64(20)
	want := (N + 1) * (N + 2) * (N + 3) * (N + 4) / 24
	for _, m := range []Method{Prefix, Hyperplane} {
		for _, nodes := range []int{1, 2, 3, 8} {
			a, err := Build(tl, []int64{N}, nodes, m)
			if err != nil {
				t.Fatalf("%v/%d: %v", m, nodes, err)
			}
			if a.Total != want {
				t.Errorf("%v/%d: Total = %d, want %d", m, nodes, a.Total, want)
			}
			var sum int64
			for _, w := range a.Work {
				sum += w
			}
			if sum != want {
				t.Errorf("%v/%d: work sums to %d, want %d", m, nodes, sum, want)
			}
		}
	}
}

func TestOwnershipCoversAllTiles(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	params := []int64{16}
	a, err := Build(tl, params, 3, Prefix)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 3)
	tl.ForEachTile(params, func(tile []int64) bool {
		n := a.Owner(tile)
		if n < 0 || n >= 3 {
			t.Fatalf("tile %v owned by %d", tile, n)
		}
		counts[n]++
		return true
	})
	for n, c := range counts {
		if c == 0 {
			t.Errorf("node %d owns no tiles", n)
		}
	}
	// Per-node work recomputed from actual tile ownership must match
	// the assignment's Work.
	work := make([]int64, 3)
	tl.ForEachTile(params, func(tile []int64) bool {
		tc := append([]int64(nil), tile...)
		work[a.Owner(tc)] += tl.CellCount(params, tc)
		return true
	})
	for n := range work {
		if work[n] != a.Work[n] {
			t.Errorf("node %d: recomputed work %d != assignment %d", n, work[n], a.Work[n])
		}
	}
}

func TestOwnershipDependsOnlyOnLBDims(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	params := []int64{16}
	a, err := Build(tl, params, 3, Prefix)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[[2]int64]int{}
	tl.ForEachTile(params, func(tile []int64) bool {
		k := [2]int64{tile[0], tile[1]}
		n := a.Owner(tile)
		if prev, ok := owners[k]; ok && prev != n {
			t.Fatalf("tiles sharing lb coords %v owned by %d and %d", k, prev, n)
		}
		owners[k] = n
		return true
	})
}

// TestFig2TwoDimsBeatOne reproduces the claim behind Figure 2: balancing
// over two of the dimensions gives a much better split across 3 nodes
// than balancing over one.
func TestFig2TwoDimsBeatOne(t *testing.T) {
	params := []int64{40}
	one := bandit2Tiling(t, 4, []string{"s1"})
	two := bandit2Tiling(t, 4, []string{"s1", "f1"})
	a1, err := Build(one, params, 3, Prefix)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Build(two, params, 3, Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Imbalance() >= a1.Imbalance() {
		t.Errorf("2-dim imbalance %.3f not better than 1-dim %.3f", a2.Imbalance(), a1.Imbalance())
	}
	if a2.Imbalance() > 1.10 {
		t.Errorf("2-dim imbalance %.3f, want near-even (<= 1.10)", a2.Imbalance())
	}
}

func TestHyperplaneOrdersByLevel(t *testing.T) {
	// With the hyperplane method on 2 lb dims, the node of a cell must be
	// non-decreasing in the diagonal level sum.
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	params := []int64{20}
	a, err := Build(tl, params, 4, Hyperplane)
	if err != nil {
		t.Fatal(err)
	}
	maxNodePerLevel := map[int64]int{}
	minNodePerLevel := map[int64]int{}
	tl.ForEachTile(params, func(tile []int64) bool {
		lvl := tile[0] + tile[1]
		n := a.Owner(tile)
		if cur, ok := maxNodePerLevel[lvl]; !ok || n > cur {
			maxNodePerLevel[lvl] = n
		}
		if cur, ok := minNodePerLevel[lvl]; !ok || n < cur {
			minNodePerLevel[lvl] = n
		}
		return true
	})
	for l1, max1 := range maxNodePerLevel {
		for l2, min2 := range minNodePerLevel {
			if l1 < l2 && max1 > min2 {
				t.Fatalf("level %d has node %d above level %d node %d", l1, max1, l2, min2)
			}
		}
	}
}

func TestSingleNode(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1"})
	a, err := Build(tl, []int64{10}, 1, Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if a.Imbalance() != 1.0 {
		t.Errorf("single node imbalance = %v", a.Imbalance())
	}
	tl.ForEachTile([]int64{10}, func(tile []int64) bool {
		if a.Owner(tile) != 0 {
			t.Fatalf("tile %v not on node 0", tile)
		}
		return true
	})
}

func TestBuildErrors(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1"})
	if _, err := Build(tl, []int64{10}, 0, Prefix); err == nil {
		t.Error("0 nodes should fail")
	}
}

func TestMoreNodesThanSlabsStillCovers(t *testing.T) {
	// N small enough that there are fewer lb1 slabs than nodes; every tile
	// must still get an owner in range.
	tl := bandit2Tiling(t, 4, []string{"s1"})
	params := []int64{6} // two slabs of s1 tiles (t in {0,1})
	a, err := Build(tl, params, 8, Prefix)
	if err != nil {
		t.Fatal(err)
	}
	tl.ForEachTile(params, func(tile []int64) bool {
		n := a.Owner(tile)
		if n < 0 || n >= 8 {
			t.Fatalf("owner %d out of range", n)
		}
		return true
	})
}

func TestTilesSumToTileCount(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	params := []int64{17}
	for _, nodes := range []int{1, 3, 5} {
		a, err := Build(tl, params, nodes, Prefix)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, n := range a.Tiles {
			sum += n
		}
		if want := tl.TileCount(params); sum != want {
			t.Errorf("nodes=%d: Tiles sum %d, want %d", nodes, sum, want)
		}
		// Per-node tile counts must match a direct ownership scan.
		direct := make([]int64, nodes)
		tl.ForEachTile(params, func(tile []int64) bool {
			direct[a.Owner(tile)]++
			return true
		})
		for i := range direct {
			if direct[i] != a.Tiles[i] {
				t.Errorf("nodes=%d node %d: Tiles %d, scan %d", nodes, i, a.Tiles[i], direct[i])
			}
		}
	}
}
