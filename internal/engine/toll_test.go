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
	n = newTestNode(prep, noopKernel, cfg)
	if err := n.seed(); err != nil {
		t.Fatal(err)
	}
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

// TestTollCountersUnchanged: publishing a tile's edge and entry
// accounting once, after its sends, reports what per-edge updates of
// shared counters did, and leaves the ready queue's peak where it was.
// The values are those of one-worker runs whose counters were updated at
// every edge and every table entry, with knap's peak elements those of
// its slabs at W = 3 (80 elements per core tile).
func TestTollCountersUnchanged(t *testing.T) {
	knap, fig4 := knapTiling(t), pipe2(t, 8)
	for _, tc := range []struct {
		name                                       string
		tl                                         *tiling.Tiling
		kernel                                     Kernel
		params                                     []int64
		cfg                                        Config
		tiles, local, peakEdges, peakEl, peakTiles int64
		queuePeak                                  int64
	}{
		{"knap-quick", knap, noopKernel, []int64{100, 400, 3}, Config{Threads: 1}, 663, 3087, 78, 1007, 27, 2},
		{"knap-quick/level-set", knap, noopKernel, []int64{100, 400, 3}, Config{Threads: 1, Priority: LevelSet}, 663, 3087, 111, 1194, 38, 13},
		{"knap-quick/fifo", knap, noopKernel, []int64{100, 400, 3}, Config{Threads: 1, Priority: FIFO}, 663, 3087, 114, 1211, 39, 13},
		{"knap", knap, noopKernel, []int64{1000, 4000, 3}, Config{Threads: 1}, 62625, 310875, 750, 10007, 251, 2},
		{"fig4/column-major", fig4, sumKernel, []int64{15}, Config{}, 64, 112, 9, 18, 8, 2},
		{"fig4/level-set", fig4, sumKernel, []int64{15}, Config{Priority: LevelSet}, 64, 112, 14, 28, 8, 8},
	} {
		res, err := Run(tc.tl, tc.kernel, tc.params, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s := res.Stats[0]
		if s.TilesExecuted != tc.tiles || s.EdgesLocal != tc.local || s.PeakPendingEdges != tc.peakEdges ||
			s.PeakBufferedElems != tc.peakEl || s.PeakPendingTiles != tc.peakTiles || s.QueueDepthPeak != tc.queuePeak {
			t.Errorf("%s: tiles %d, local edges %d, peak edges %d, peak elems %d, peak tiles %d, queue peak %d; want %d, %d, %d, %d, %d, %d", tc.name,
				s.TilesExecuted, s.EdgesLocal, s.PeakPendingEdges, s.PeakBufferedElems, s.PeakPendingTiles, s.QueueDepthPeak,
				tc.tiles, tc.local, tc.peakEdges, tc.peakEl, tc.peakTiles, tc.queuePeak)
		}
	}
}

// TestEdgeBufsSteadyState: once the wavefront is under way a tile's
// unpack → release → pack → deliver cycle runs on the worker's free
// stack, the recycled table entry and the table's pages, allocating
// nothing — on knap's core tiles and on bandit2's boundary tiles, whose
// cells and partial slabs replay shapes from the plan's table. knap keeps
// every slab's page live all run; bandit2's slabs finish in turn, and
// from its 3 600th tile on every page a slab takes is one a finished
// slab recycled.
func TestEdgeBufsSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tl     *tiling.Tiling
		params []int64
		reuse  int // tiles after which pages are taken only off the free list; 0: never
	}{
		{"knap", knapTiling(t), []int64{1000, 4000, 3}, 0},
		{"bandit2", bandit2Tiling(t, 6, []string{"s1", "f1"}), []int64{100}, 3600},
	} {
		n, w, step := serialWorker(t, tc.tl, tc.params)
		for i := 0; i < 2000; i++ { // past the first tile rows, where the live set still grows
			step()
		}
		s, ok := w.bufs.Get(0)
		if !ok {
			t.Fatalf("%s: no edge buffer reached the worker's free stack", tc.name)
		}
		w.bufs.Put(s)
		if allocs := testing.AllocsPerRun(1000, func() { step() }); allocs != 0 {
			t.Errorf("%s: %v allocations per steady-state tile, want 0", tc.name, allocs)
		}
		if tc.reuse == 0 {
			continue
		}
		for i := 2001 + 1000; i < tc.reuse; i++ {
			step()
		}
		tab := n.live.tab
		had := make([]bool, tab.PageKey.Len())
		for sk := range had {
			had[sk] = tab.Loaded(uint64(sk)) != nil
		}
		allocated, taken := tab.Allocated(), 0
		allocs := testing.AllocsPerRun(1000, func() {
			step()
			for sk := range had {
				if !had[sk] && tab.Loaded(uint64(sk)) != nil {
					had[sk] = true
					taken++
				}
			}
		})
		if allocs != 0 || taken == 0 || tab.Allocated() != allocated {
			t.Errorf("%s: %v allocations per tile while %d slabs took pages, %d of them new; want 0, some, 0",
				tc.name, allocs, taken, tab.Allocated()-allocated)
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

// mcmTiling is the mcm builtin's geometry: two range dependences whose
// length N-m-1 changes from one cell to the next along m.
func mcmTiling(t testing.TB) *tiling.Tiling {
	t.Helper()
	sp := spec.MustNew("mcm", []string{"N"}, []string{"m", "i"})
	sp.MustConstrain("0 <= i")
	sp.MustConstrain("i <= m")
	sp.MustConstrain("m <= N - 1")
	sp.Bound("N", 1, 24)
	sp.MustAddDepSpec("left", "1, 0", "1, 0", "N - m - 1")
	sp.MustAddDepSpec("right", "1, 1", "1, 1", "N - m - 1")
	sp.TileWidths = []int64{8, 8}
	sp.LBDims = []string{"m"}
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// TestTollLenRunOnlyWhereLengthsVary pins where a run cuts its offers by
// tiling.ShapeReader.LenRun: every interior tile of knap at the
// benchmark's size settles its range length once (ConstLens) and makes
// no call, while mcm, whose lengths vary along its rows, still makes them.
func TestTollLenRunOnlyWhereLengthsVary(t *testing.T) {
	for _, tc := range []struct {
		name     string
		tl       *tiling.Tiling
		params   []int64
		interior bool // the calls counted are the interior tiles' alone
		want     func(calls int64) bool
	}{
		{"knap", knapTiling(t), []int64{1000, 4000, 3}, true, func(calls int64) bool { return calls == 0 }},
		{"mcm", mcmTiling(t), []int64{24}, false, func(calls int64) bool { return calls > 0 }},
	} {
		n, w, _ := serialWorker(t, tc.tl, tc.params)
		ref := tc.tl.NewProbe(tc.params)
		var tiles, calls int64
		for {
			p, _ := n.pool.Pop(0)
			if p == nil {
				break
			}
			counted := !tc.interior || ref.Interior(p.Tile.coord)
			before := w.lenRuns
			n.execTile(p, w, false)
			if counted {
				tiles++
				calls += w.lenRuns - before
			}
		}
		t.Logf("%s: %d LenRun calls over %d tiles", tc.name, calls, tiles)
		if tiles == 0 || !tc.want(calls) {
			t.Errorf("%s: %d LenRun calls over %d tiles", tc.name, calls, tiles)
		}
	}
}

// TestTollPartialUnpacks pins how many edges a run unpacks through
// tiling.ShapeReader.UnpackPartial rather than the full-slab copy: at
// knap's W = 3 on one thread only edges shorter than the run's slab take
// the partial path, so an interior edge leaving the full-slab path
// shows here.
func TestTollPartialUnpacks(t *testing.T) {
	tl, params := knapTiling(t), []int64{100, 400, 3}
	n, w, step := serialWorker(t, tl, params)
	var tiles int64
	for step() {
		tiles++
	}
	edges := n.edgesLocalA.Load()
	t.Logf("knap %v: %d of %d edges unpacked partially over %d tiles", params, w.partials, edges, tiles)
	if w.partials != 135 {
		t.Errorf("knap %v: %d edges unpacked partially, want 135", params, w.partials)
	}
}
