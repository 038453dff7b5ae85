package engine

import (
	"testing"

	"dpgen/internal/balance"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// knapTiling is the knap builtin's geometry (dpgen/internal/problems
// imports this package): five tile dependences, the widest two tiles
// away, on 8×8 tiles — the shape whose per-tile toll ROADMAP 2(c) names.
func knapTiling(t testing.TB) *tiling.Tiling {
	t.Helper()
	sp := spec.MustNew("knap", []string{"N", "C", "W"}, []string{"a", "u"})
	sp.MustConstrain("0 <= a <= N - 1")
	sp.MustConstrain("0 <= u <= C")
	sp.Bound("W", 1, 4)
	sp.MustAddDepSpec("take", "1, 0", "0, W", "4")
	sp.TileWidths = []int64{8, 8}
	sp.LBDims = []string{"a"}
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// noopKernel is the kernel that costs nothing: it accepts every run whole.
func noopKernel(c *Ctx) { c.Done = c.N }

// serialWorker seeds a one-node, one-thread job and returns its node,
// the scratch of its only worker, and step, which pops and executes one
// tile on the calling goroutine — the worker loop without the goroutine,
// so a test can stop between tiles and read the worker's scratch.
func serialWorker(t testing.TB, tl *tiling.Tiling, params []int64) (n *node, w *workerState, step func() bool) {
	t.Helper()
	cfg := Config{}.withDefaults()
	prep, err := prepare(tl, params, 1, []int{0}, cfg.Balance)
	if err != nil {
		t.Fatal(err)
	}
	e, nodes, err := newEngine(prep, noopKernel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.seed(nodes); err != nil {
		t.Fatal(err)
	}
	e.finished.Add(1)
	n = nodes[0]
	w = n.newWorkerState(0)
	return n, w, func() bool {
		p, _ := n.pool.Pop(0)
		if p != nil {
			n.execTile(p, w, false)
		}
		return p != nil
	}
}

// TestTollPaidOncePerTile pins the per-tile fixed cost where a timing
// cannot: a core tile costs its worker one polytope evaluation (the
// Core probe of prepTile), any other tile at most the exact queries —
// Core, DepCount, Interior and one InSpace per consumer.
func TestTollPaidOncePerTile(t *testing.T) {
	for _, tc := range []struct {
		params  []int64
		perTile float64 // bound on evaluations per executed tile
	}{
		// 506 of 663 tiles are core: the boundary is a fifth of the space.
		{[]int64{100, 400, 3}, 4},
		// The repository benchmark's instance: 97.4 % core.
		{[]int64{1000, 4000, 3}, 1.5},
	} {
		tl := knapTiling(t)
		n, w, step := serialWorker(t, tl, tc.params)
		ref := tl.NewProbe(tc.params)
		var core, tiles int64
		tl.ForEachTile(tc.params, func(tt []int64) bool {
			tiles++
			if ref.Core(tt) {
				core++
			}
			return true
		})
		for step() {
		}
		if n.executed != tiles {
			t.Fatalf("params %v: executed %d of %d tiles", tc.params, n.executed, tiles)
		}
		evals, ndeps := w.probe.Evals(), int64(len(tl.TileDeps))
		if most := core + (tiles-core)*(2+2*ndeps); evals > most {
			t.Errorf("params %v: %d evaluations, want at most %d (one per core tile, %d per other)", tc.params, evals, most, 2+2*ndeps)
		}
		perTile := float64(evals) / float64(tiles)
		t.Logf("params %v: %d tiles, %d core, %.2f evaluations per tile", tc.params, tiles, core, perTile)
		if perTile > tc.perTile {
			t.Errorf("params %v: %.2f evaluations per tile, want <= %v", tc.params, perTile, tc.perTile)
		}
	}
}

// TestTollCountersUnchanged: publishing a tile's edge accounting once,
// after its sends, reports what the per-edge updates did. The values
// are those of one-worker runs at the commit before the change.
func TestTollCountersUnchanged(t *testing.T) {
	knap, fig4 := knapTiling(t), pipe2(t, 8)
	for _, tc := range []struct {
		name                            string
		tl                              *tiling.Tiling
		kernel                          Kernel
		params                          []int64
		cfg                             Config
		tiles, local, peakEdges, peakEl int64
	}{
		{"knap-quick", knap, noopKernel, []int64{100, 400, 3}, Config{Threads: 1}, 663, 3087, 78, 1812},
		{"knap-quick/level-set", knap, noopKernel, []int64{100, 400, 3}, Config{Threads: 1, Priority: LevelSet}, 663, 3087, 111, 2032},
		{"fig4/column-major", fig4, sumKernel, []int64{15}, Config{}, 64, 112, 9, 18},
		{"fig4/level-set", fig4, sumKernel, []int64{15}, Config{Priority: LevelSet}, 64, 112, 14, 28},
	} {
		res, err := Run(tc.tl, tc.kernel, tc.params, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s := res.Stats[0]
		if s.TilesExecuted != tc.tiles || s.EdgesLocal != tc.local || s.PeakPendingEdges != tc.peakEdges || s.PeakBufferedElems != tc.peakEl {
			t.Errorf("%s: tiles %d, local edges %d, peak edges %d, peak elems %d; want %d, %d, %d, %d", tc.name,
				s.TilesExecuted, s.EdgesLocal, s.PeakPendingEdges, s.PeakBufferedElems, tc.tiles, tc.local, tc.peakEdges, tc.peakEl)
		}
	}
}

// TestEdgeBufsSteadyState: once the wavefront is under way a tile's
// unpack → release → pack → deliver cycle runs on the worker's free
// stack and the recycled table entry, allocating nothing — on knap's
// core tiles and on bandit2's boundary tiles, whose cells and partial
// slabs replay shapes from the plan's table.
func TestEdgeBufsSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tl     *tiling.Tiling
		params []int64
	}{
		{"knap", knapTiling(t), []int64{1000, 4000, 3}},
		{"bandit2", bandit2Tiling(t, 6, []string{"s1", "f1"}), []int64{100}},
	} {
		_, w, step := serialWorker(t, tc.tl, tc.params)
		for i := 0; i < 2000; i++ { // past the first tile rows, where the live set still grows
			step()
		}
		if len(w.bufs.free) == 0 {
			t.Fatalf("%s: no edge buffer reached the worker's free stack", tc.name)
		}
		if allocs := testing.AllocsPerRun(1000, func() { step() }); allocs != 0 {
			t.Errorf("%s: %v allocations per steady-state tile, want 0", tc.name, allocs)
		}
	}
}

// TestTollRowsWalkedOncePerShape pins replay where a timing cannot: on
// bandit2 at N = 100, Prepare walks the rows of the distinct shapes —
// not the 449 451 rows of the 3 025 boundary tiles — and a run, on one
// worker or two, walks none.
func TestTollRowsWalkedOncePerShape(t *testing.T) {
	tl, params := bandit2Tiling(t, 6, []string{"s1", "f1"}), []int64{100}
	prep, err := Prepare(tl, params, 1, balance.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	st := prep.rows.ShapeStats()
	t.Logf("after Prepare: %+v", st)
	if st.Cells != 4 || st.Slabs != 16 || st.Walked != st.Rows {
		t.Fatalf("Prepare interned %d cell and %d slab shapes walking %d rows for %d; want 4, 16 and every row once",
			st.Cells, st.Slabs, st.Walked, st.Rows)
	}
	for _, threads := range []int{1, 2} {
		if _, err := prep.Run(noopKernel, Config{Threads: threads}); err != nil {
			t.Fatal(err)
		}
		if walked := prep.rows.ShapeStats().Walked; walked != st.Walked {
			t.Errorf("%d threads: the run walked %d rows", threads, walked-st.Walked)
		}
	}
}
