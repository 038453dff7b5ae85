package dpgen

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"dpgen/internal/engine"
	"dpgen/internal/mpi/tcp"
	"dpgen/internal/problems"
	"dpgen/internal/tiling"
	"dpgen/internal/workload"
)

// TestElasticBitIdentical is the end-to-end elasticity check: a
// four-process mesh starts with only ranks {0, 1} owning tiles, ranks
// 2 and 3 announce themselves as joiners and are admitted once rank 0
// has executed 8 tiles (2 -> 4), and rank 1 requests a voluntary leave
// after 4 tiles and is stripped of its remaining work once the scale
// schedule has been honoured (4 -> 3). Every rank of the elastic run
// must produce the exact value of the fixed-membership in-memory run
// and of the serial reference; the per-rank executed-tile counts must
// sum to the total tile count (no tile re-executed across the view
// changes); and no goroutine may outlive the run. The prepared case
// runs the same protocol through Prepared.Run: a Prepared is balanced
// over every rank, so all four start as members, and the view changes
// are a scheduled shrink (4 -> 3, rank 3 removed) and rank 1's leave.
func TestElasticBitIdentical(t *testing.T) {
	// The coordinator checks its scale schedule as its tiles complete and
	// the joiners announce themselves only once their own engine.Run is up,
	// so whether a view change still finds tiles to migrate is a race
	// between that latency and the compute. The sizes below (the
	// benchmark's: thousands of tiles, tens of milliseconds of compute)
	// leave the protocol a margin of well over 20x; the registry
	// defaults finish in 1-4 ms and lost the race half the time.
	for _, tc := range []struct {
		name     string
		p        *problems.Problem
		params   []int64
		prepared bool
	}{
		{"bandit2", problems.Bandit2(), []int64{100}, false},
		{"lcs2", problems.LCS2(workload.DNA(2000, 9), workload.DNA(2000, 10)), nil, false},
		{"bandit2-prepared", problems.Bandit2(), []int64{100}, true},
	} {
		tc := tc
		p, params := tc.p, tc.params
		if params == nil {
			params = p.DefaultParams
		}
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			serial := p.Serial(params)

			const world, threads = 4, 2
			reftl, err := tiling.New(p.Spec)
			if err != nil {
				t.Fatal(err)
			}
			// Fixed-membership reference: the same problem on a plain
			// two-rank in-memory run (the member set the job starts with).
			ref, err := engine.Run(reftl, p.Kernel, params, engine.Config{Nodes: 2, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			var totalTiles int64
			for _, st := range ref.Stats {
				totalTiles += st.TilesExecuted
			}

			lns, peers, err := tcp.Loopback(world)
			if err != nil {
				t.Fatal(err)
			}

			// One value for the whole job. Ranks 2 and 3, outside
			// Members, announce themselves as joiners; the prepared run
			// starts with every rank and shrinks instead.
			elastic := engine.ElasticConfig{
				Enabled:    true,
				Members:    []int{0, 1},
				ScaleAt:    []engine.ScaleEvent{{AfterTiles: 8, Delta: +2}},
				LeaveAfter: map[int]int64{1: 4},
			}
			if tc.prepared {
				elastic.Members = nil
				elastic.ScaleAt = []engine.ScaleEvent{{AfterTiles: 8, Delta: -1}}
			}

			type outcome struct {
				rank int
				res  *engine.Result
				err  error
			}
			done := make(chan outcome, world)
			for r := 0; r < world; r++ {
				go func(r int) {
					tl, err := tiling.New(p.Spec)
					if err != nil {
						done <- outcome{r, nil, err}
						return
					}
					tr, err := tcp.Dial(r, peers, tcp.Options{
						DialTimeout: 15 * time.Second,
						Listener:    lns[r],
					})
					if err != nil {
						done <- outcome{r, nil, err}
						return
					}
					cfg := engine.Config{Transport: tr, Threads: threads, Elastic: elastic}
					if !tc.prepared {
						res, err := engine.Run(tl, p.Kernel, params, cfg)
						done <- outcome{r, res, err}
						return
					}
					prep, err := engine.Prepare(tl, params, world, cfg.Balance)
					if err != nil {
						tr.Close()
						done <- outcome{r, nil, err}
						return
					}
					res, err := prep.Run(p.Kernel, cfg)
					done <- outcome{r, res, err}
				}(r)
			}

			results := make([]*engine.Result, world)
			for i := 0; i < world; i++ {
				select {
				case oc := <-done:
					if oc.err != nil {
						t.Fatalf("rank %d: %v", oc.rank, oc.err)
					}
					results[oc.rank] = oc.res
				case <-time.After(120 * time.Second):
					t.Fatal("elastic run never finished")
				}
			}

			// Bit-identity: every rank's merged result equals both the
			// fixed-membership run and the serial reference.
			for r, res := range results {
				if res.Value != ref.Value {
					t.Errorf("rank %d: Value %.17g != fixed-membership %.17g", r, res.Value, ref.Value)
				}
				if res.Max != ref.Max && !(math.IsNaN(res.Max) && math.IsNaN(ref.Max)) {
					t.Errorf("rank %d: Max %.17g != fixed-membership %.17g", r, res.Max, ref.Max)
				}
				got := res.Value
				if p.UseMax {
					got = res.Max
				}
				if got != serial {
					t.Errorf("rank %d: elastic run %.17g != serial reference %.17g", r, got, serial)
				}
			}

			// Exactly-once across every membership change: the per-rank
			// executed totals partition the tile space.
			var sumTiles int64
			for r, res := range results {
				sumTiles += res.Stats[r].TilesExecuted
			}
			if sumTiles != totalTiles {
				t.Errorf("elastic ranks executed %d tiles, want exactly %d (no re-execution, no loss)",
					sumTiles, totalTiles)
			}

			// Both view changes (the join and the leave) reached every rank.
			for r, res := range results {
				if ep := res.Stats[r].Epochs; ep < 2 {
					t.Errorf("rank %d applied %d membership epochs, want >= 2", r, ep)
				}
			}
			// The join moved live tiles onto at least one joiner, and the
			// leave moved rank 1's remaining tiles off it.
			if in := results[2].Stats[2].TilesMigratedIn + results[3].Stats[3].TilesMigratedIn; in == 0 && !tc.prepared {
				t.Error("joiners absorbed no migrated tiles")
			}
			if out := results[1].Stats[1].TilesMigratedOut; out == 0 {
				t.Error("leaver migrated no tiles out")
			}

			// Everything is closed; the process must be back to its
			// pre-test goroutine count (give the runtime time to reap).
			deadline := time.Now().Add(10 * time.Second)
			for {
				if n := runtime.NumGoroutine(); n <= before {
					break
				} else if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestElasticConfigRejections pins the compositions elastic membership
// refuses, each with the structural reason its error must state:
// in-process runs (nothing to join or leave), Checkpoint (no checkpoint
// records the ownership map), member lists that omit the coordinator,
// and leaves scheduled for the coordinator or a rank outside the world.
func TestElasticConfigRejections(t *testing.T) {
	p, err := problems.Get("bandit2")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunProblem(p, p.DefaultParams, Config{
		Nodes:   2,
		Elastic: ElasticConfig{Enabled: true},
	})
	if err == nil || !strings.Contains(err.Error(), "no processes to join or leave") {
		t.Fatalf("in-process elastic run: got %v, want a rejection saying there are no processes to join or leave", err)
	}

	bad := []struct {
		cfg    Config
		reason string
	}{
		{Config{Checkpoint: CheckpointConfig{Dir: t.TempDir()}, Elastic: ElasticConfig{Enabled: true}},
			"no checkpoint records the epoch's ownership map"},
		{Config{Elastic: ElasticConfig{Enabled: true, Members: []int{1}}},
			"must include rank 0 (the coordinator)"},
		{Config{Elastic: ElasticConfig{Enabled: true, LeaveAfter: map[int]int64{0: 4}}},
			"LeaveAfter rank 0 out of range [1,2)"},
		{Config{Elastic: ElasticConfig{Enabled: true, LeaveAfter: map[int]int64{2: 4}}},
			"LeaveAfter rank 2 out of range [1,2)"},
	}
	for i, tc := range bad {
		tc := tc
		// A fresh mesh per row: closing a transport closes its listener.
		lns, peers, err := tcp.Loopback(2)
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 2)
		for r := 0; r < 2; r++ {
			go func(r int) {
				tr, err := tcp.Dial(r, peers, tcp.Options{DialTimeout: 10 * time.Second, Listener: lns[r]})
				if err != nil {
					errs <- fmt.Errorf("dial: %w", err)
					return
				}
				defer tr.Close()
				c := tc.cfg
				c.Transport = tr
				_, err = RunProblem(p, p.DefaultParams, c)
				errs <- err
			}(r)
		}
		for r := 0; r < 2; r++ {
			select {
			case err := <-errs:
				if err == nil || !strings.Contains(err.Error(), tc.reason) {
					t.Errorf("config %d: got %v, want a rejection giving the reason %q", i, err, tc.reason)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("config %d: rejection never returned", i)
			}
		}
	}
}
