// Benchmarks, one per table/figure of the paper's evaluation (see
// DESIGN.md for the experiment index) plus ablations of the design
// choices. cmd/dpbench runs the same experiments at paper scale and
// prints the full tables; these benches keep instances small enough for
// "go test -bench=.". Shape metrics (speedup, efficiency, peak edges)
// are attached with b.ReportMetric.
package dpgen

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dpgen/internal/balance"
	"dpgen/internal/ehrhart"
	"dpgen/internal/engine"
	"dpgen/internal/fm"
	"dpgen/internal/lin"
	"dpgen/internal/loopgen"
	"dpgen/internal/obs"
	"dpgen/internal/problems"
	"dpgen/internal/serve"
	"dpgen/internal/simsched"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
	"dpgen/internal/workload"
)

func benchTiling(b *testing.B, name string, width int64) *tiling.Tiling {
	b.Helper()
	p, err := problems.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	sp := *p.Spec
	if width > 0 {
		w := make([]int64, len(sp.Vars))
		for i := range w {
			w[i] = width
		}
		sp.TileWidths = w
	}
	tl, err := tiling.New(&sp)
	if err != nil {
		b.Fatal(err)
	}
	return tl
}

func benchKernel(b *testing.B, name string) engine.Kernel {
	b.Helper()
	p, err := problems.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	return p.Kernel
}

// BenchmarkFig1Bandit2 measures the hybrid solve of the Section II
// problem (whose value the tests verify bit-exactly against Figure 1).
func BenchmarkFig1Bandit2(b *testing.B) {
	tl := benchTiling(b, "bandit2", 6)
	kernel := benchKernel(b, "bandit2")
	params := []int64{30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(tl, kernel, params, engine.Config{Nodes: 2, Threads: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracerOverhead runs the BenchmarkFig1Bandit2 workload with
// tracing disabled (the shipping default: one nil check per event
// site) and enabled (a fresh tracer per run), so the two can be
// compared directly; Disabled must stay within noise of
// BenchmarkFig1Bandit2 itself.
func BenchmarkTracerOverhead(b *testing.B) {
	tl := benchTiling(b, "bandit2", 6)
	kernel := benchKernel(b, "bandit2")
	params := []int64{30}
	b.Run("Disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(tl, kernel, params, engine.Config{Nodes: 2, Threads: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tracer := obs.NewTracer()
			if _, err := engine.Run(tl, kernel, params, engine.Config{Nodes: 2, Threads: 2, Tracer: tracer}); err != nil {
				b.Fatal(err)
			}
			if tr := tracer.Snapshot(); len(tr.Events) == 0 {
				b.Fatal("enabled tracer recorded nothing")
			}
		}
	})
}

// BenchmarkTracerOverheadDistributed is the cross-rank sibling of
// BenchmarkTracerOverhead: a two-rank lcs2 job over real loopback TCP,
// with tracing disabled (the shipping default — DATA frames still carry
// the aligned send timestamp, but no trace events are recorded) and
// enabled (a tracer per rank, as `dprun -launch -trace` runs). Each
// iteration includes the mesh dial and clock-sync handshake, matching
// what a distributed run pays end to end.
func BenchmarkTracerOverheadDistributed(b *testing.B) {
	p, err := problems.Get("lcs2")
	if err != nil {
		b.Fatal(err)
	}
	params := p.DefaultParams
	b.Run("Disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runDistributedTCP(b, p, params, 2, 2)
		}
	})
	b.Run("Enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tracers := make([]*obs.Tracer, 2)
			runDistributedTCPOpts(b, p, params, 2, 2, nil, func(r int, c *engine.Config) {
				tracers[r] = obs.NewTracer()
				c.Tracer = tracers[r]
			})
			for r, tr := range tracers {
				if len(tr.Snapshot().Events) == 0 {
					b.Fatalf("rank %d tracer recorded nothing", r)
				}
			}
		}
	})
}

// BenchmarkFig2Balance measures the Ehrhart-weighted prefix balancer
// across 3 nodes and reports the achieved imbalance.
func BenchmarkFig2Balance(b *testing.B) {
	tl := benchTiling(b, "bandit2", 4)
	params := []int64{40}
	var im float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := balance.Build(tl, params, 3, balance.Prefix)
		if err != nil {
			b.Fatal(err)
		}
		im = a.Imbalance()
	}
	b.ReportMetric(im, "imbalance")
}

// BenchmarkFig3LoopGen measures the full generation-time analysis
// (Fourier–Motzkin projections, loop-bound synthesis, pack nests).
func BenchmarkFig3LoopGen(b *testing.B) {
	p, err := problems.Get("bandit2")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tiling.New(p.Spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig45Memory runs the priority-policy memory experiment and
// reports the peak buffered edges under each policy.
func BenchmarkFig45Memory(b *testing.B) {
	tl := benchTiling(b, "bandit2", 4)
	kernel := benchKernel(b, "bandit2")
	params := []int64{20}
	for _, tc := range []struct {
		name string
		prio engine.Priority
	}{{"ColumnMajor", engine.ColumnMajor}, {"LevelSet", engine.LevelSet}} {
		b.Run(tc.name, func(b *testing.B) {
			var peak int64
			for i := 0; i < b.N; i++ {
				res, err := engine.Run(tl, kernel, params, engine.Config{Priority: tc.prio})
				if err != nil {
					b.Fatal(err)
				}
				peak = res.Stats[0].PeakPendingEdges
			}
			b.ReportMetric(float64(peak), "peak-edges")
		})
	}
}

// BenchmarkFig6SharedScaling simulates the 24-core shared-memory point
// of Figure 6 and reports the speedup.
func BenchmarkFig6SharedScaling(b *testing.B) {
	tl := benchTiling(b, "bandit2", 6)
	params := []int64{90}
	var sp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := simsched.Simulate(tl, params, simsched.Config{Nodes: 1, Cores: 24})
		if err != nil {
			b.Fatal(err)
		}
		sp = res.Speedup()
	}
	b.ReportMetric(sp, "speedup-24c")
}

// BenchmarkFig7WeakScaling simulates the 8-node point of Figure 7 and
// reports per-location-normalized efficiency against a 1-node run.
func BenchmarkFig7WeakScaling(b *testing.B) {
	tl := benchTiling(b, "bandit2", 6)
	base, err := simsched.Simulate(tl, []int64{60}, simsched.Config{Nodes: 1, Cores: 24})
	if err != nil {
		b.Fatal(err)
	}
	basePerLoc := base.Makespan / float64(base.TotalCells)
	var eff float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := simsched.Simulate(tl, []int64{103}, simsched.Config{Nodes: 8, Cores: 24})
		if err != nil {
			b.Fatal(err)
		}
		eff = basePerLoc / (res.Makespan * 8 / float64(res.TotalCells))
	}
	b.ReportMetric(100*eff, "weak-eff-%")
}

// BenchmarkTileWidthSweep simulates the Section VI-C tile-size effect at
// two widths on 8 nodes.
func BenchmarkTileWidthSweep(b *testing.B) {
	for _, w := range []int64{6, 24} {
		tl := benchTiling(b, "bandit2", w)
		cost := simsched.DefaultCostModel()
		cost.TileOverhead = 20e-6
		b.Run(map[int64]string{6: "w6", 24: "w24"}[w], func(b *testing.B) {
			var mk float64
			for i := 0; i < b.N; i++ {
				res, err := simsched.Simulate(tl, []int64{120}, simsched.Config{
					Nodes: 8, Cores: 24, Cost: cost,
				})
				if err != nil {
					b.Fatal(err)
				}
				mk = res.Makespan
			}
			b.ReportMetric(mk*1e3, "makespan-ms")
		})
	}
}

// BenchmarkBufferSweep simulates the Section VI-C send-buffer effect.
func BenchmarkBufferSweep(b *testing.B) {
	tl := benchTiling(b, "bandit2", 6)
	cost := simsched.DefaultCostModel()
	cost.MsgLatency = 100e-6
	for _, bufs := range []int{1, 16} {
		b.Run(map[int]string{1: "bufs1", 16: "bufs16"}[bufs], func(b *testing.B) {
			var mk float64
			for i := 0; i < b.N; i++ {
				res, err := simsched.Simulate(tl, []int64{60}, simsched.Config{
					Nodes: 8, Cores: 24, SendBufs: bufs, Cost: cost,
				})
				if err != nil {
					b.Fatal(err)
				}
				mk = res.Makespan
			}
			b.ReportMetric(mk*1e3, "makespan-ms")
		})
	}
}

// BenchmarkPendingMemory measures a full run and reports the peak
// buffered-edge memory relative to the full-space table (Section V-B).
func BenchmarkPendingMemory(b *testing.B) {
	tl := benchTiling(b, "bandit2", 5)
	kernel := benchKernel(b, "bandit2")
	N := int64(40)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.Run(tl, kernel, []int64{N}, engine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		loc := (N + 1) * (N + 2) * (N + 3) * (N + 4) / 24
		ratio = float64(res.Stats[0].PeakBufferedElems) / float64(loc)
	}
	b.ReportMetric(100*ratio, "peak/space-%")
}

// BenchmarkFig8Hyperplane simulates the hyperplane balancer (Fig 8).
func BenchmarkFig8Hyperplane(b *testing.B) {
	tl := benchTiling(b, "bandit2", 5)
	for _, tc := range []struct {
		name string
		m    balance.Method
	}{{"Prefix", balance.Prefix}, {"Hyperplane", balance.Hyperplane}} {
		b.Run(tc.name, func(b *testing.B) {
			var mk float64
			for i := 0; i < b.N; i++ {
				res, err := simsched.Simulate(tl, []int64{60}, simsched.Config{
					Nodes: 4, Cores: 24, Balance: tc.m,
				})
				if err != nil {
					b.Fatal(err)
				}
				mk = res.Makespan
			}
			b.ReportMetric(mk*1e3, "makespan-ms")
		})
	}
}

// ---- ablations ----

// BenchmarkFMRedundancy compares Fourier–Motzkin with syntactic-only
// deduplication against full simplex redundancy pruning, reporting the
// surviving constraint counts.
func BenchmarkFMRedundancy(b *testing.B) {
	// A pairwise-constrained system where Fourier–Motzkin famously
	// multiplies constraints: x_i + x_j <= N for all i < j, x_i >= 0;
	// eliminating the middle variables squares the count per step unless
	// redundancy is pruned.
	vars := []string{"x1", "x2", "x3", "x4", "x5", "x6"}
	s := lin.MustSpace([]string{"N"}, vars)
	sys := lin.NewSystem(s)
	for i := range vars {
		sys.AddGE(lin.Var(s, vars[i]), lin.Zero(s))
		for j := i + 1; j < len(vars); j++ {
			sys.AddLE(lin.Var(s, vars[i]).Add(lin.Var(s, vars[j])), lin.Var(s, "N"))
		}
	}
	for _, tc := range []struct {
		name string
		opts fm.Options
	}{
		{"Syntactic", fm.Options{Prune: fm.PruneSyntactic}},
		{"Simplex", fm.Options{Prune: fm.PruneSimplex}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				out, err := fm.EliminateAll(sys, vars[1:5], tc.opts)
				if err != nil {
					b.Fatal(err)
				}
				n = len(out.Ineqs)
			}
			b.ReportMetric(float64(n), "constraints")
		})
	}
}

// BenchmarkPackedVsWhole reports the communication saving of packed edge
// slabs against shipping whole tiles (Section IV-I: one bandit edge is
// w^3 of a w^4 tile).
func BenchmarkPackedVsWhole(b *testing.B) {
	tl := benchTiling(b, "bandit2", 6)
	params := []int64{60}
	var packed, whole int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packed, whole = 0, 0
		tl.ForEachTile(params, func(t []int64) bool {
			tc := append([]int64(nil), t...)
			for j := range tl.TileDeps {
				packed += tl.EdgeSize(params, tc, j)
				whole += tl.AllocLen
			}
			return true
		})
	}
	b.ReportMetric(float64(whole)/float64(packed), "whole/packed")
}

// BenchmarkEhrhart measures quasi-polynomial reconstruction for the
// bandit space (the paper's Barvinok step).
func BenchmarkEhrhart(b *testing.B) {
	p, err := problems.Get("bandit2")
	if err != nil {
		b.Fatal(err)
	}
	nest, err := loopgen.Build(p.Spec.System(), p.Spec.Order(), fm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ehrhart.Interpolate(nest, ehrhart.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures end-to-end program generation (spec to
// formatted standalone source).
func BenchmarkGenerate(b *testing.B) {
	p, err := problems.Get("bandit2")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p.Spec, GenOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCellThroughput reports the in-process runtime's cell
// rate on the 2-arm bandit kernel (single node, single thread).
func BenchmarkEngineCellThroughput(b *testing.B) {
	tl := benchTiling(b, "bandit2", 6)
	kernel := benchKernel(b, "bandit2")
	N := int64(40)
	cells := (N + 1) * (N + 2) * (N + 3) * (N + 4) / 24
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(tl, kernel, []int64{N}, engine.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

// BenchmarkEnginePaperBandit2 runs the 2-arm bandit at the paper's
// N=100 on a single node, with the interior fast path on (default) and
// forced off, reporting ns/cell.
func BenchmarkEnginePaperBandit2(b *testing.B) {
	tl := benchTiling(b, "bandit2", 0)
	kernel := benchKernel(b, "bandit2")
	N := int64(100)
	cells := (N + 1) * (N + 2) * (N + 3) * (N + 4) / 24
	for _, tc := range []struct {
		name string
		slow bool
	}{{"Fast", false}, {"Boundary", true}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(tl, kernel, []int64{N}, engine.Config{DisableFastPath: tc.slow}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/float64(cells)*1e9, "ns/cell")
		})
	}
}

// BenchmarkEnginePaperLCS2 runs pairwise LCS on 2000-base DNA strings
// (the paper's string-problem scale) on a single node, fast path on and
// off, reporting ns/cell.
func BenchmarkEnginePaperLCS2(b *testing.B) {
	p := problems.LCS2(workload.DNA(2000, 9), workload.DNA(2000, 10))
	tl, err := tiling.New(p.Spec)
	if err != nil {
		b.Fatal(err)
	}
	params := p.DefaultParams
	cells := (params[0] + 1) * (params[1] + 1)
	for _, tc := range []struct {
		name string
		slow bool
	}{{"Fast", false}, {"Boundary", true}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(tl, p.Kernel, params, engine.Config{DisableFastPath: tc.slow}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/float64(cells)*1e9, "ns/cell")
		})
	}
}

// TestThreadScalingGuard is the tile scheduler's scaling gate on real
// cores: lcs2 on two 2000-base DNA strings, one node, one warm-up run
// and then the best of three at 1 and at 4 threads, must reach a 1.5x
// speedup at 4. A wall-clock ratio, so it runs only with
// DPGEN_TIMING_GUARDS=1, and only on a host with 4 CPUs to give it.
func TestThreadScalingGuard(t *testing.T) {
	if os.Getenv("DPGEN_TIMING_GUARDS") == "" {
		t.Skip("wall-clock guard: set DPGEN_TIMING_GUARDS=1 to run it")
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("4 threads need 4 CPUs, host has %d", n)
	}
	p := problems.LCS2(workload.DNA(2000, 9), workload.DNA(2000, 10))
	tl, err := tiling.New(p.Spec)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Serial(p.DefaultParams)
	best := func(threads int) time.Duration {
		var fastest time.Duration
		for rep := 0; rep <= 3; rep++ { // rep 0 is the warm-up
			t0 := time.Now()
			res, err := engine.Run(tl, p.Kernel, p.DefaultParams, engine.Config{Threads: threads})
			d := time.Since(t0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Value != want {
				t.Fatalf("t%d: value %v, serial reference %v", threads, res.Value, want)
			}
			if rep > 0 && (fastest == 0 || d < fastest) {
				fastest = d
			}
		}
		return fastest
	}
	t1, t4 := best(1), best(4)
	speedup := float64(t1) / float64(t4)
	t.Logf("lcs2 2000x2000: t1 %v, t4 %v, speedup %.2fx on %d CPUs", t1, t4, speedup, runtime.NumCPU())
	if speedup < 1.5 {
		t.Errorf("t4 speedup %.2fx, want >= 1.5x (t1 %v, t4 %v)", speedup, t1, t4)
	}
}

// benchNsPerCell runs the job b.N times on a single node with default
// settings and reports ns per computed cell.
func benchNsPerCell(b *testing.B, tl *tiling.Tiling, kernel engine.Kernel, params []int64) {
	var cells int64
	for i := 0; i < b.N; i++ {
		res, err := engine.Run(tl, kernel, params, engine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		cells = 0
		for _, st := range res.Stats {
			cells += st.CellsComputed
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/float64(cells)*1e9, "ns/cell")
}

// BenchmarkRunKernel isolates the run contract: the converted builtins
// at the repository benchmark's sizes, as shipped (run: the kernel
// takes the N cells it is offered) and behind perCell (cell: the same
// body offered one cell per call, the cost before the contract
// existed), single node, default threads.
func BenchmarkRunKernel(b *testing.B) {
	lcs := problems.LCS2(workload.DNA(2000, 9), workload.DNA(2000, 10))
	for _, tc := range []struct {
		name   string
		p      *problems.Problem
		params []int64
	}{
		{"lcs2", lcs, lcs.DefaultParams},
		{"bandit2", problems.Bandit2(), []int64{100}},
		{"knap", problems.Knapsack(), []int64{1000, 4000, 3}},
	} {
		tl, err := tiling.New(tc.p.Spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, form := range []struct {
			name   string
			kernel engine.Kernel
		}{{"run", tc.p.Kernel}, {"cell", perCell(tc.p.Kernel)}} {
			b.Run(tc.name+"/"+form.name, func(b *testing.B) { benchNsPerCell(b, tl, form.kernel, tc.params) })
		}
	}
}

// BenchmarkTileOverhead measures what a tile costs before it computes
// anything (ROADMAP item 2(c)): the repository benchmark's four tile
// shapes — knap's 8×8 with five range-footprint edges, the served
// triangle's 16×16, lcs2's 32×32 and bandit2's 6×6×6×6, whose tiles are
// mostly boundary tiles — prepared once and run on one worker under a
// kernel that only accepts the run it is offered. What is left is the
// scheduler, the pending table, the probes, the shape replay of rows and
// partial slabs and the edge copies: ns/tile, and its inverse. The
// lcs2-32x32/2w row runs lcs2 on two workers (read it under -cpu 2),
// where a readied tile's placement — on its producer's worker or the
// other — is part of the toll.
func BenchmarkTileOverhead(b *testing.B) {
	tri, err := spec.Parse(triangleSpecText)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		sp      *spec.Spec
		params  []int64
		threads int
	}{
		{"knap8x8", problems.Knapsack().Spec, []int64{1000, 4000, 3}, 1},
		{"triangle16x16", tri, []int64{2000}, 1},
		{"lcs2-32x32", problems.LCS2(workload.DNA(2000, 9), workload.DNA(2000, 10)).Spec, []int64{2000, 2000}, 1},
		{"lcs2-32x32/2w", problems.LCS2(workload.DNA(2000, 9), workload.DNA(2000, 10)).Spec, []int64{2000, 2000}, 2},
		{"bandit2-6x6x6x6", problems.Bandit2().Spec, []int64{100}, 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tl, err := tiling.New(tc.sp)
			if err != nil {
				b.Fatal(err)
			}
			prep, err := engine.Prepare(tl, tc.params, 1, balance.Prefix)
			if err != nil {
				b.Fatal(err)
			}
			var tiles int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := prep.Run(func(c *engine.Ctx) { c.Done = c.N }, engine.Config{Threads: tc.threads})
				if err != nil {
					b.Fatal(err)
				}
				tiles = res.Stats[0].TilesExecuted
			}
			perTile := b.Elapsed().Seconds() / float64(b.N) / float64(tiles)
			b.ReportMetric(perTile*1e9, "ns/tile")
			b.ReportMetric(1/perTile, "tiles/s")
		})
	}
}

// BenchmarkEngineNonserial runs the three bounded-template builtins —
// matrix-chain multiplication, optimal binary search trees, and the
// bounded knapsack — at their default parameters on a single node,
// reporting ns/cell. These are the range/variable-distance dependence
// paths (footprint unpacking, per-cell length clamps) that the
// constant-offset benchmarks above never touch.
func BenchmarkEngineNonserial(b *testing.B) {
	for _, name := range []string{"mcm", "obst", "knap"} {
		b.Run(name, func(b *testing.B) {
			p, err := problems.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			tl, err := tiling.New(p.Spec)
			if err != nil {
				b.Fatal(err)
			}
			benchNsPerCell(b, tl, p.Kernel, p.DefaultParams)
		})
	}
}

// BenchmarkSimplexRedundant measures the exact-rational redundancy test.
func BenchmarkSimplexRedundant(b *testing.B) {
	s := lin.MustSpace([]string{"N"}, []string{"x", "y"})
	sys := lin.NewSystem(s)
	sys.AddLE(lin.Var(s, "x"), lin.Var(s, "N"))
	sys.AddLE(lin.Var(s, "x").Add(lin.Var(s, "y")), lin.Var(s, "N").AddConst(5))
	sys.AddGE(lin.Var(s, "x"), lin.Zero(s))
	sys.AddGE(lin.Var(s, "y"), lin.Zero(s))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fm.Simplify(sys, fm.Options{Prune: fm.PruneSimplex}); err != nil {
			b.Fatal(err)
		}
	}
}

// triangleSpecText is the triangular spec the serve-mix workload posts
// (benchmark/wl_serve.go): i+j <= N with unit steps, 16x16 tiles.
const triangleSpecText = `name tri
params N
vars i j
constraint i >= 0
constraint j >= 0
constraint i + j <= N
dep down <1, 0>
dep right <0, 1>
balance i
tile 16 16
goal 0 0
`

// BenchmarkSetup measures cold set-up — spec.Parse, tiling.New and
// engine.Prepare from spec text, the cost every cold door pays (dprun,
// each rank of a distributed run, a dpserve compile miss) — at the
// repository benchmark's instance sizes. The polyhedral analysis and the
// per-instance balance/initial-tile work are reported as separate
// metrics so a change to either is localised.
func BenchmarkSetup(b *testing.B) {
	readSpec := func(name string) string {
		text, err := os.ReadFile(filepath.Join("specs", name))
		if err != nil {
			b.Fatal(err)
		}
		return string(text)
	}
	lcs2, err := problems.Get("lcs2")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		text   string
		params []int64
	}{
		{"lcs2", serve.Canonicalize(lcs2.Spec), lcs2.DefaultParams},
		{"bandit2@100", readSpec("bandit2.dps"), []int64{100}},
		{"knap@1000x4000x3", readSpec("knap.dps"), []int64{1000, 4000, 3}},
		{"triangle@350", triangleSpecText, []int64{350}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var analyze, prepare time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				sp, err := spec.Parse(tc.text)
				if err != nil {
					b.Fatal(err)
				}
				tl, err := tiling.New(sp)
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if _, err := engine.Prepare(tl, tc.params, 1, balance.Prefix); err != nil {
					b.Fatal(err)
				}
				analyze += t1.Sub(t0)
				prepare += time.Since(t1)
			}
			b.ReportMetric(analyze.Seconds()*1e3/float64(b.N), "analyze-ms")
			b.ReportMetric(prepare.Seconds()*1e3/float64(b.N), "prepare-ms")
		})
	}
}

// BenchmarkGeneratedRun times the paper's deliverable as its user runs
// it: specs/bandit2.dps through Generate and go build, once, then the
// process at -N 60 on one and two worker threads. ns/cell is process
// wall — runtime start-up, ownership scan and solve — over the cells
// the program reports; bufs_alloc/tile is how many edge buffers it
// allocated per tile (one per edge, ~3.2, before buffers recycled).
func BenchmarkGeneratedRun(b *testing.B) {
	sp, err := LoadSpec("specs/bandit2.dps")
	if err != nil {
		b.Fatal(err)
	}
	src, err := Generate(sp, GenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "main.go"), src, 0o644); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module generated\n\ngo 1.22\n"), 0o644); err != nil {
		b.Fatal(err)
	}
	bin := filepath.Join(dir, "prog")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Dir = dir
	if out, err := build.CombinedOutput(); err != nil {
		b.Fatalf("go build of the generated program: %v\n%s", err, out)
	}
	for _, threads := range []string{"1", "2"} {
		b.Run("t"+threads, func(b *testing.B) {
			stat := map[string]float64{}
			for i := 0; i < b.N; i++ {
				cmd := exec.Command(bin, "-N", "60", "-threads", threads, "-stats")
				cmd.Env = append(os.Environ(), "GOMAXPROCS="+threads)
				out, err := cmd.Output()
				if err != nil {
					b.Fatalf("generated program: %v\n%s", err, out)
				}
				// node 0 tiles T cells C ... bufs_alloc A
				_, line, _ := strings.Cut(string(out), "\nnode 0 ")
				f := strings.Fields(line)
				for k := 0; k+1 < len(f); k += 2 {
					stat[f[k]], _ = strconv.ParseFloat(f[k+1], 64)
				}
			}
			if stat["cells"] == 0 || stat["tiles"] == 0 {
				b.Fatalf("no node statistics from the program: %v", stat)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/stat["cells"], "ns/cell")
			b.ReportMetric(stat["bufs_alloc"]/stat["tiles"], "bufs_alloc/tile")
		})
	}
}
