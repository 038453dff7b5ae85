package tiling_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dpgen/internal/dpfuzz"
	"dpgen/internal/problems"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
	"dpgen/internal/workload"
)

// checkCore diffs Core against the queries it stands in for, on the
// folded and the checked probe path, over every tile of the bounding box
// grown by one in each direction: Core(t) must imply Interior(t), a full
// DepCount and an existing consumer t − off_j for every tile dependence.
// The construction is exact, so the converse is asserted too. The folded
// probe tests only the forms that can fail inside the box (pruneForms),
// so its InSpace, Interior, DepCount and interiorRun along every
// dimension are diffed against the checked path's full systems there
// too. It returns the core tiles and the tiles of the space.
func checkCore(tl *tiling.Tiling, params []int64) (core, tiles int, err error) {
	folded, checked := tl.NewProbe(params), tl.NewProbe(params)
	checked.Unfold()
	d, ndeps := len(tl.Spec.Vars), len(tl.TileDeps)
	lo, hi := tl.TileBounds(params)
	t, nb := make([]int64, d), make([]int64, d)
	for k := range t {
		if lo[k] > hi[k] {
			return 0, 0, nil // empty space
		}
		t[k] = lo[k] - 1
	}
	for {
		if got, want := folded.InSpace(t), checked.InSpace(t); got != want {
			return 0, 0, fmt.Errorf("tile %v: InSpace %v, checked path %v", t, got, want)
		}
		interior := checked.Interior(t)
		if got := folded.Interior(t); got != interior {
			return 0, 0, fmt.Errorf("tile %v: Interior %v, checked path %v", t, got, interior)
		}
		if got, want := folded.DepCount(t), checked.DepCount(t); got != want {
			return 0, 0, fmt.Errorf("tile %v: DepCount %d, checked path %d", t, got, want)
		}
		for k := range t {
			if a, b := folded.InteriorRun(t, k, lo[k]-1, hi[k]+1); (a <= t[k] && t[k] <= b) != interior {
				return 0, 0, fmt.Errorf("tile %v: interior run %d..%d along dimension %d, checked Interior %v", t, a, b, k, interior)
			}
		}
		want := interior && folded.DepCount(t) == ndeps
		for j := 0; want && j < ndeps; j++ {
			for k, off := range tl.TileDeps[j].Offset {
				nb[k] = t[k] - off
			}
			want = folded.InSpace(nb)
		}
		if got, gotChecked := folded.Core(t), checked.Core(t); got != want || gotChecked != want {
			return 0, 0, fmt.Errorf("tile %v: Core %v (checked path %v), per-neighbour queries say %v", t, got, gotChecked, want)
		}
		if folded.InSpace(t) {
			tiles++
			if want {
				core++
			}
		}
		k := d - 1
		for ; k >= 0 && t[k] == hi[k]+1; k-- {
			t[k] = lo[k] - 1
		}
		if k < 0 {
			return core, tiles, nil
		}
		t[k]++
	}
}

// TestCoreProbe: one Core evaluation answers what Interior, DepCount and
// an InSpace per consumer answer separately — on every builtin, on 200
// generated specs, and at the repository benchmark's sizes, whose core
// share (the property the engine's per-tile saving depends on) is
// logged.
func TestCoreProbe(t *testing.T) {
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
			core, tiles, err := checkCore(tl, p.DefaultParams)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			t.Logf("%-12s %v: %d of %d tiles core", name, p.DefaultParams, core, tiles)
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
			if _, _, err := checkCore(tl, params); err != nil {
				t.Fatalf("%s: %v", f, err)
			}
		}
	})
	t.Run("triangle", func(t *testing.T) {
		tl := mustTiling(t, triangleSpec())
		for _, n := range []int64{0, 15, 16, 70, 345} {
			if _, _, err := checkCore(tl, []int64{n}); err != nil {
				t.Fatalf("N=%d: %v", n, err)
			}
		}
	})
	t.Run("fuzz", func(t *testing.T) {
		core, tiles := 0, 0
		for seed := uint64(1); seed <= 200; seed++ {
			in := dpfuzz.Generate(seed)
			tl, err := tiling.New(in.Spec)
			if err != nil {
				t.Fatalf("seed %d: tiling.New: %v", seed, err)
			}
			params := []int64{in.N}
			if len(in.Spec.Params) > 1 {
				params = append(params, in.D)
			}
			c, n, err := checkCore(tl, params)
			if err != nil {
				t.Fatalf("seed %d params %v: %v\n%s", seed, params, err, dpfuzz.GoLiteral(in))
			}
			core, tiles = core+c, tiles+n
		}
		if core == 0 {
			t.Errorf("no generated tile was core: the true answer went untested")
		}
		t.Logf("%d of %d generated tiles core", core, tiles)
	})
	t.Run("benchmark-sizes", func(t *testing.T) {
		lcs := problems.LCS2(workload.DNA(2000, 9), workload.DNA(2000, 10))
		for _, tc := range []struct {
			name     string
			p        *problems.Problem
			params   []int64
			minShare float64
		}{
			{"knap", problems.Knapsack(), []int64{1000, 4000, 3}, 0.95},
			{"bandit2", problems.Bandit2(), []int64{100}, 0},
			{"lcs2", lcs, lcs.DefaultParams, 0},
		} {
			tl, err := tiling.New(tc.p.Spec)
			if err != nil {
				t.Fatal(err)
			}
			core, tiles, err := checkCore(tl, tc.params)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			share := float64(core) / float64(tiles)
			t.Logf("%-8s %v: %d of %d tiles core (%.1f%%)", tc.name, tc.params, core, tiles, 100*share)
			if share < tc.minShare {
				t.Errorf("%s: core share %.3f, want >= %.2f", tc.name, share, tc.minShare)
			}
		}
	})
}

// TestProbeFormCounts pins how many forms the bound probe tests per
// InSpace, Interior and Core query once the tile box holds: the rows of
// TileSys, InteriorSys and CoreSys that can fail inside the box. A
// redundant row creeping back shows here first.
func TestProbeFormCounts(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		tl                    *tiling.Tiling
		params                []int64
		space, interior, core int
	}{
		{"bandit2", mustTiling(t, problems.Bandit2().Spec), []int64{100}, 1, 1, 5},
		{"triangle", mustTiling(t, triangleSpec()), []int64{345}, 1, 1, 3},
		{"knap", mustTiling(t, problems.Knapsack().Spec), []int64{1000, 4000, 3}, 0, 2, 4},
		{"lcs2", mustTiling(t, problems.LCS2(workload.DNA(2000, 9), workload.DNA(2000, 10)).Spec), []int64{2000, 2000}, 0, 2, 4},
	} {
		s, i, c := tc.tl.NewProbe(tc.params).FormCounts()
		if s != tc.space || i != tc.interior || c != tc.core {
			t.Errorf("%s %v: %d/%d/%d forms (space/interior/core) of %d/%d/%d rows, want %d/%d/%d", tc.name, tc.params,
				s, i, c, len(tc.tl.TileSys.Ineqs), len(tc.tl.InteriorSys.Ineqs), len(tc.tl.CoreSys.Ineqs), tc.space, tc.interior, tc.core)
		}
	}
}

func mustTiling(t *testing.T, sp *spec.Spec) *tiling.Tiling {
	t.Helper()
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}
