package tiling_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dpgen/internal/balance"
	"dpgen/internal/dpfuzz"
	"dpgen/internal/problems"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// checkOnePass builds the assignment the way engine.Prepare does — a
// row plan bound to params, counted by the balance's one pass over the
// tile space — at 1 and 3 nodes, and diffs what the runtime takes from
// it against the exhaustive scans: the initial tiles it seeds, as a set,
// and the per-node tile totals it terminates on. Slabs drops slabs with
// no work, so a tile in one would be owned by node 0 yet counted by no
// node, and a run would wait for it forever.
func checkOnePass(t *testing.T, where string, tl *tiling.Tiling, params []int64) {
	t.Helper()
	want, total := tl.InitialTiles(params)
	if total != tl.TileCount(params) {
		t.Fatalf("%s: exhaustive scan visits %d tiles, TileCount %d", where, total, tl.TileCount(params))
	}
	slices.SortFunc(want, slices.Compare)
	for _, nodes := range []int{1, 3} {
		a, err := balance.BuildMembers(tl, params, nodes, nil, balance.Prefix, tl.BindRows(params))
		if err != nil {
			t.Fatalf("%s nodes %d: %v", where, nodes, err)
		}
		got := slices.Clone(a.Initial)
		slices.SortFunc(got, slices.Compare)
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("%s nodes %d: one pass finds %d initial tiles %v, exhaustive scan %d %v",
				where, nodes, len(got), got, len(want), want)
		}
		owned := make([]int64, nodes)
		tl.ForEachTile(params, func(tile []int64) bool {
			owned[a.Owner(tile)]++
			return true
		})
		var sum int64
		for _, n := range a.Tiles {
			sum += n
		}
		if !slices.Equal(a.Tiles, owned) || sum != total {
			t.Errorf("%s nodes %d: Tiles %v (sum %d), exhaustive per-owner count %v of %d tiles",
				where, nodes, a.Tiles, sum, owned, total)
		}
	}
}

// TestSlabsInitialTilesMatchScan: the initial tiles and owned-tile
// totals the runtime takes from the balance's one pass equal the
// exhaustive scans' on every builtin, every specs/*.dps, a parameter that
// defeats the row plan's overflow proof (the checked counting path) and
// 200 generated specs per template class. Generated 4-D specs are capped
// as in TestRowsMatchEnumeratorFuzz: their cost is tiling.New.
func TestSlabsInitialTilesMatchScan(t *testing.T) {
	t.Run("builtins", func(t *testing.T) {
		for _, name := range problems.Names() {
			p, err := problems.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			tl, err := tiling.New(p.Spec)
			if err != nil {
				t.Fatal(err)
			}
			checkOnePass(t, name, tl, p.DefaultParams)
		}
	})
	t.Run("specs", func(t *testing.T) {
		files, err := filepath.Glob("../../specs/*.dps")
		if err != nil || len(files) == 0 {
			t.Fatalf("no spec files: %v", err)
		}
		for _, f := range files {
			text, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := spec.Parse(string(text))
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			tl, err := tiling.New(sp)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			params := []int64{37} // grid2 has no builtin twin
			if p, err := problems.Get(sp.Name); err == nil {
				params = p.DefaultParams
			}
			checkOnePass(t, f, tl, params)
		}
	})
	t.Run("proof-fails", func(t *testing.T) {
		tl, err := tiling.New(hugeParamSpec())
		if err != nil {
			t.Fatal(err)
		}
		params := []int64{20, hugeParam}
		if tl.BindRows(params).OK() {
			t.Fatal("overflow proof held")
		}
		checkOnePass(t, "hugeparam", tl, params)
	})
	specs, max4D := 200, 10
	if testing.Short() {
		specs, max4D = 40, 2
	}
	for _, class := range []dpfuzz.Class{dpfuzz.ClassConst, dpfuzz.ClassVarDist, dpfuzz.ClassRange} {
		class := class
		t.Run("fuzz/"+class.String(), func(t *testing.T) {
			t.Parallel()
			n4D := 0
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
				params := []int64{in.N}
				if len(in.Spec.Params) > 1 {
					params = append(params, in.D)
				}
				checkOnePass(t, "seed "+in.Spec.Name, tl, params)
			}
		})
	}
}
