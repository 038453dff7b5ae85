package engine

import (
	"testing"

	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// ---- tile scheduling ----

// TestSchedulersBitIdentical: every schedule the scheduler produces —
// one worker, several workers stealing from each other, several nodes,
// and the three priority policies — computes bit-identical cell values:
// the order may only change within what the dependence DAG allows.
func TestSchedulersBitIdentical(t *testing.T) {
	n := int64(10)
	tl := pipe2(t, n)
	N := 2*n - 1
	var ref map[[2]int64]float64
	for _, cfg := range []Config{
		{Nodes: 1, Threads: 1},
		{Nodes: 1, Threads: 4},
		{Nodes: 3, Threads: 2},
		{Nodes: 3, Threads: 2, Priority: LevelSet},
		{Nodes: 3, Threads: 2, Priority: FIFO},
	} {
		got := map[[2]int64]float64{}
		kernel := capturing(sumKernel, func(x []int64, v float64) { got[[2]int64{x[0], x[1]}] = v })
		res, err := Run(tl, kernel, []int64{N}, cfg)
		if err != nil {
			t.Fatalf("%dx%d %v: %v", cfg.Nodes, cfg.Threads, cfg.Priority, err)
		}
		if res.Value == 0 {
			t.Fatalf("%dx%d %v: zero goal value", cfg.Nodes, cfg.Threads, cfg.Priority)
		}
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%dx%d %v: %d cells, one worker computed %d",
				cfg.Nodes, cfg.Threads, cfg.Priority, len(got), len(ref))
		}
		for k, want := range ref {
			if got[k] != want {
				t.Fatalf("%dx%d %v: cell %v = %v, one worker %v",
					cfg.Nodes, cfg.Threads, cfg.Priority, k, got[k], want)
			}
		}
	}
}

// TestStaticPhaseDisabledPaths: there is no static phase on any path.
// NodeStats.StaticTiles stays for its readers and reports zero
// everywhere, including the multi-worker fast path that once ran one.
func TestStaticPhaseDisabledPaths(t *testing.T) {
	n := int64(8)
	tl := pipe2(t, n)
	N := 2*n - 1
	for name, cfg := range map[string]Config{
		"threads":    {Threads: 2},
		"nodes":      {Nodes: 2, Threads: 2},
		"nofastpath": {Threads: 2, DisableFastPath: true},
		"checkpoint": {Threads: 2, Checkpoint: CheckpointConfig{Dir: t.TempDir(), EveryTiles: 1}},
	} {
		res, err := Run(tl, sumKernel, []int64{N}, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, st := range res.Stats {
			if st.StaticTiles != 0 {
				t.Errorf("%s: node %d reports %d static tiles, want 0", name, i, st.StaticTiles)
			}
		}
	}
}

// TestPopAccounting: every executed tile is either a local pop or a
// steal, at any node and thread count — on bandit2 and on lcs2-shaped
// tiles at 1 × 2, where a worker's own pushes decide the most placements.
func TestPopAccounting(t *testing.T) {
	bandit2 := bandit2Tiling(t, 4, []string{"s1", "f1"})
	sp := spec.MustNew("lcs2", []string{"N"}, []string{"i", "j"})
	sp.MustConstrain("0 <= i <= N")
	sp.MustConstrain("0 <= j <= N")
	sp.AddDep("up", 1, 0)
	sp.AddDep("left", 0, 1)
	sp.AddDep("diag", 1, 1)
	sp.TileWidths = []int64{4, 4}
	lcs2, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		tl     *tiling.Tiling
		kernel Kernel
		N      int64
		cfg    Config
	}{
		{bandit2, bandit2Kernel, 15, Config{Nodes: 1, Threads: 1}},
		{bandit2, bandit2Kernel, 15, Config{Nodes: 1, Threads: 4}},
		{bandit2, bandit2Kernel, 15, Config{Nodes: 2, Threads: 3}},
		{lcs2, sumKernel, 63, Config{Nodes: 1, Threads: 2}},
	} {
		cfg := row.cfg
		res, err := Run(row.tl, row.kernel, []int64{row.N}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range res.Stats {
			if st.Steals+st.LocalPops != st.TilesExecuted {
				t.Errorf("nodes=%d threads=%d node %d: steals %d + local %d != executed %d",
					cfg.Nodes, cfg.Threads, i, st.Steals, st.LocalPops, st.TilesExecuted)
			}
			if st.TilesExecuted > 0 && st.QueueDepthPeak < 1 {
				t.Errorf("node %d executed %d tiles with queue peak %d", i, st.TilesExecuted, st.QueueDepthPeak)
			}
			if cfg.Threads == 1 && st.Steals != 0 {
				t.Errorf("node %d stole %d tiles with a single worker", i, st.Steals)
			}
		}
	}
}

// TestReadiedTileStaysOnItsWorker: a worker's delivery pushes the tile
// it readies onto that worker's own shard. Worker 1 of a two-worker node
// runs the whole job on the calling goroutine: it steals only the seeded
// tiles, which the pool placed by key hash, and pops every tile it
// readied itself from its own shard.
func TestReadiedTileStaysOnItsWorker(t *testing.T) {
	cfg := Config{Threads: 2}.withDefaults()
	prep, err := prepare(pipe2(t, 8), []int64{15}, 1, []int{0}, cfg.Balance)
	if err != nil {
		t.Fatal(err)
	}
	n := newTestNode(prep, noopKernel, cfg)
	if err := n.seed(); err != nil {
		t.Fatal(err)
	}
	w := n.newWorkerState(1)
	var tiles int64
	for {
		p, _ := n.pool.Pop(1)
		if p == nil {
			break
		}
		n.execTile(p, w, false)
		tiles++
	}
	steals, local, _ := n.pool.Counts()
	if seeds := int64(len(prep.assign.Initial)); tiles != 64 || steals > seeds || steals+local != tiles {
		t.Errorf("worker 1 ran %d of 64 tiles: %d steals (%d seeded tiles), %d local pops", tiles, steals, seeds, local)
	}
}
