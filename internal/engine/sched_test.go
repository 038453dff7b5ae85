package engine

import (
	"sync"
	"testing"
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
		var mu sync.Mutex
		got := map[[2]int64]float64{}
		cfg.OnCell = func(x []int64, v float64) {
			mu.Lock()
			got[[2]int64{x[0], x[1]}] = v
			mu.Unlock()
		}
		res, err := Run(tl, sumKernel, []int64{N}, cfg)
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
// steal, at any node and thread count.
func TestPopAccounting(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	N := int64(15)
	for _, cfg := range []Config{
		{Nodes: 1, Threads: 1},
		{Nodes: 1, Threads: 4},
		{Nodes: 2, Threads: 3},
	} {
		res, err := Run(tl, bandit2Kernel, []int64{N}, cfg)
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
