package main

import (
	"fmt"
	"strings"

	"dpgen/internal/balance"
	"dpgen/internal/codegen"
	"dpgen/internal/ehrhart"
	"dpgen/internal/engine"
	"dpgen/internal/fm"
	"dpgen/internal/loopgen"
	"dpgen/internal/problems"
	"dpgen/internal/simsched"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// mustTiling analyzes a problem spec, optionally overriding tile widths
// and load-balancing dimensions.
func mustTiling(p *problems.Problem, width int64, lb []string) *tiling.Tiling {
	sp := *p.Spec // shallow copy so overrides do not leak across experiments
	if width > 0 {
		w := make([]int64, len(sp.Vars))
		for i := range w {
			w[i] = width
		}
		sp.TileWidths = w
	}
	if lb != nil {
		sp.LBDims = lb
	}
	tl, err := tiling.New(&sp)
	if err != nil {
		panic(err)
	}
	return tl
}

// ---- fig1: correctness of the generated solvers ----

func expFig1(quick bool) {
	type row struct {
		name   string
		params []int64
	}
	rows := []row{
		{"bandit2", []int64{pick(quick, 12, 30)}},
		{"bandit3", []int64{pick(quick, 6, 12)}},
		{"bandit2delay", []int64{pick(quick, 6, 10)}},
		{"editdist", nil},
		{"lcs3", nil},
		{"msa3", nil},
	}
	fmt.Printf("%-14s %-18s %-22s %-22s %s\n", "problem", "params", "hybrid value", "serial value", "match")
	for _, r := range rows {
		p, err := problems.Get(r.name)
		if err != nil {
			panic(err)
		}
		params := r.params
		if params == nil {
			params = p.DefaultParams
		}
		res, err := runEngine(mustTiling(p, 0, nil), p.Kernel, params, engine.Config{Nodes: 3, Threads: 2})
		if err != nil {
			panic(err)
		}
		want := p.Serial(params)
		match := "OK"
		if res.Value != want {
			match = "MISMATCH"
		}
		fmt.Printf("%-14s %-18s %-22.15g %-22.15g %s\n", r.name, fmt.Sprint(params), res.Value, want, match)
	}
}

// ---- fig2: load balancing across 3 nodes ----

func expFig2(quick bool) {
	p := problems.Bandit2()
	N := pick(quick, 30, 60)

	// The paper's first Ehrhart polynomial: total work as a function of N.
	nest, err := loopgen.Build(p.Spec.System(), p.Spec.Order(), fm.Options{})
	if err != nil {
		panic(err)
	}
	qp, err := ehrhart.Interpolate(nest, ehrhart.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("total work (Ehrhart): W(N) = %s;  W(%d) = %d\n", qp, N, qp.Eval(N))

	// Multivariate reconstruction for a multi-parameter problem.
	ed := problems.EditDistanceSeeded(1, 2)
	edNest, err := loopgen.Build(ed.Spec.System(), ed.Spec.Order(), fm.Options{})
	if err != nil {
		panic(err)
	}
	mp, err := ehrhart.InterpolateMulti(edNest, ehrhart.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("editdist total work (multivariate Ehrhart): W(200,180) = %d (= 201*181)\n\n",
		mp.Eval([]int64{200, 180}))

	for _, lb := range [][]string{{"s1"}, {"s1", "f1"}} {
		tl := mustTiling(p, 5, lb)
		a, err := balance.Build(tl, []int64{N}, 3, balance.Prefix)
		if err != nil {
			panic(err)
		}
		fmt.Printf("lb dims %-12v work per node:", lb)
		for n, w := range a.Work {
			fmt.Printf("  node%d %d (%.1f%%)", n, w, 100*float64(w)/float64(a.Total))
		}
		fmt.Printf("  imbalance %.3f\n", a.Imbalance())
	}
}

// ---- fig3: loop synthesis and generated code ----

func expFig3(quick bool) {
	p := problems.Bandit2()
	nest, err := loopgen.Build(p.Spec.System(), p.Spec.Order(), fm.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("synthesized loop nest for the 2-arm bandit (cf. Fig 1):")
	fmt.Println(nest)

	src, err := codegen.Generate(p.Spec, codegen.Options{ParamDefaults: []int64{40}})
	if err != nil {
		panic(err)
	}
	fmt.Println("\ngenerated tile executor (cf. Fig 3), first lines:")
	printFunc(string(src), "func dpExecTile", 18)
}

func printFunc(src, marker string, lines int) {
	i := strings.Index(src, marker)
	if i < 0 {
		fmt.Println("  (not found)")
		return
	}
	for n, line := range strings.Split(src[i:], "\n") {
		if n >= lines {
			fmt.Println("  ...")
			return
		}
		fmt.Println("  " + line)
	}
}

// ---- figs 4-5: priority policy vs buffered-edge memory ----

func expFig45(quick bool) {
	// 2-D n x n tile grid with unit templates, executed on one node with
	// one thread so the policy alone decides buffering.
	sp := spec.MustNew("grid2", []string{"N"}, []string{"x", "y"})
	sp.MustConstrain("0 <= x <= N")
	sp.MustConstrain("0 <= y <= N")
	sp.AddDep("r", 1, 0)
	sp.AddDep("d", 0, 1)
	sp.TileWidths = []int64{2, 2}
	kernel := func(c *engine.Ctx) {
		v := 1.0
		if c.DepValid[0] {
			v += c.V[c.DepLoc[0]]
		}
		if c.DepValid[1] {
			v += c.V[c.DepLoc[1]]
		}
		c.V[c.Loc] = v
	}
	tl, err := tiling.New(sp)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-8s %-18s %-18s %-10s %-10s\n", "n tiles", "column-major", "level-set", "n+1", "2(n-1)")
	ns := []int64{5, 16, 32}
	if quick {
		ns = []int64{5, 16}
	}
	for _, n := range ns {
		N := 2*n - 1
		peak := map[engine.Priority]int64{}
		for _, prio := range []engine.Priority{engine.ColumnMajor, engine.LevelSet} {
			res, err := runEngine(tl, kernel, []int64{N}, engine.Config{Priority: prio})
			if err != nil {
				panic(err)
			}
			peak[prio] = res.Stats[0].PeakPendingEdges
		}
		fmt.Printf("%-8d %-18d %-18d %-10d %-10d\n",
			n, peak[engine.ColumnMajor], peak[engine.LevelSet], n+1, 2*(n-1))
	}

	// 4-D bandit: the level-set peak grows toward d times column-major.
	p := problems.Bandit2()
	tl4 := mustTiling(p, 4, nil)
	N := pick(quick, 20, 32)
	peak := map[engine.Priority]int64{}
	for _, prio := range []engine.Priority{engine.ColumnMajor, engine.LevelSet} {
		res, err := runEngine(tl4, p.Kernel, []int64{N}, engine.Config{Priority: prio})
		if err != nil {
			panic(err)
		}
		peak[prio] = res.Stats[0].PeakBufferedElems
	}
	fmt.Printf("\n4-D bandit2 (N=%d): peak buffered elems column-major %d, level-set %d (ratio %.2f; d=%d)\n",
		N, peak[engine.ColumnMajor], peak[engine.LevelSet],
		float64(peak[engine.LevelSet])/float64(peak[engine.ColumnMajor]), 4)
}

// ---- fig6: shared-memory scaling ----

type scaleInstance struct {
	name   string
	tl     *tiling.Tiling
	params []int64
}

func fig6Instances(quick bool) []scaleInstance {
	b2 := problems.Bandit2()
	b3 := problems.Bandit3()
	ed := problems.EditDistanceSeeded(1, 2)
	l3 := problems.LCS3Seeded(2)
	m3 := problems.MSASeeded(3, 8, 24, 22, 20)
	if quick {
		return []scaleInstance{
			{"bandit2", mustTiling(b2, 6, nil), []int64{90}},
			{"bandit3", mustTiling(b3, 4, nil), []int64{24}},
			{"editdist", mustTiling(ed, 32, nil), []int64{600, 600}},
			{"lcs3", mustTiling(l3, 8, nil), []int64{96, 96, 96}},
			{"msa3", mustTiling(m3, 8, nil), []int64{64, 64, 64}},
		}
	}
	return []scaleInstance{
		{"bandit2", mustTiling(b2, 6, nil), []int64{180}},
		{"bandit3", mustTiling(b3, 4, nil), []int64{60}},
		{"editdist", mustTiling(ed, 32, nil), []int64{8000, 8000}},
		{"lcs3", mustTiling(l3, 8, nil), []int64{240, 240, 240}},
		{"msa3", mustTiling(m3, 8, nil), []int64{320, 320, 320}},
	}
}

func expFig6(quick bool) {
	cores := []int{1, 2, 4, 8, 12, 16, 20, 24}
	fmt.Printf("simulated speedup on one 24-core node (cost model: %+v)\n\n", simsched.DefaultCostModel())
	fmt.Printf("%-10s", "problem")
	for _, c := range cores {
		fmt.Printf(" %6dc", c)
	}
	fmt.Printf("  %s\n", "eff@24")
	for _, inst := range fig6Instances(quick) {
		fmt.Printf("%-10s", inst.name)
		var last, t1 float64
		for _, c := range cores {
			res, err := simsched.Simulate(inst.tl, inst.params, simsched.Config{Nodes: 1, Cores: c})
			if err != nil {
				panic(err)
			}
			if c == 1 {
				t1 = res.Makespan
			}
			last = t1 / res.Makespan
			fmt.Printf(" %7.2f", last)
		}
		fmt.Printf("  %.1f%%\n", 100*last/24)
	}
}

// ---- fig7: weak scaling across nodes ----

func expFig7(quick bool) {
	nodes := []int{1, 2, 4, 8}
	fmt.Println("simulated weak scaling, 24 cores per node; problem size grows with")
	fmt.Println("the node count so locations per node stay roughly constant; times")
	fmt.Println("are normalized per location as in the paper")
	for _, series := range []struct {
		name string
		inst func(n int) ([]int64, *tiling.Tiling)
	}{
		{"bandit2", weakBandit2(quick)},
		{"bandit3", weakBandit3(quick)},
		{"editdist", weakEditDist(quick)},
		{"lcs3", weakLCS3(quick)},
	} {
		fmt.Printf("\n%s:\n%-6s %-16s %-14s %-12s %-10s %s\n",
			series.name, "nodes", "params", "locations", "makespan", "eff", "msgs")
		var basePerLoc float64
		for _, n := range nodes {
			params, tl := series.inst(n)
			res, err := simsched.Simulate(tl, params, simsched.Config{Nodes: n, Cores: 24})
			if err != nil {
				panic(err)
			}
			perLoc := res.Makespan * float64(n) / float64(res.TotalCells)
			if n == 1 {
				basePerLoc = perLoc
			}
			fmt.Printf("%-6d %-16s %-14d %-12s %-8s %d\n",
				n, fmt.Sprint(params), res.TotalCells,
				fmt.Sprintf("%.4fs", res.Makespan),
				fmt.Sprintf("%.1f%%", 100*basePerLoc/perLoc), res.Messages)
		}
	}
}

// weakBandit2 returns an instance builder: for n nodes, the smallest N
// whose location count reaches n times the base instance's.
func weakBandit2(quick bool) func(n int) ([]int64, *tiling.Tiling) {
	base := pick(quick, 60, 170)
	tl := mustTiling(problems.Bandit2(), 6, nil)
	loc := func(N int64) int64 { return (N + 1) * (N + 2) * (N + 3) * (N + 4) / 24 }
	return func(n int) ([]int64, *tiling.Tiling) {
		target := int64(n) * loc(base)
		N := base
		for loc(N) < target {
			N++
		}
		return []int64{N}, tl
	}
}

func weakBandit3(quick bool) func(n int) ([]int64, *tiling.Tiling) {
	base := pick(quick, 18, 60)
	tl := mustTiling(problems.Bandit3(), 4, nil)
	loc := func(N int64) int64 {
		v := int64(1)
		for i := int64(1); i <= 6; i++ {
			v = v * (N + i) / i
		}
		return v
	}
	return func(n int) ([]int64, *tiling.Tiling) {
		target := int64(n) * loc(base)
		N := base
		for loc(N) < target {
			N++
		}
		return []int64{N}, tl
	}
}

func weakEditDist(quick bool) func(n int) ([]int64, *tiling.Tiling) {
	base := pick(quick, 500, 1200)
	tl := mustTiling(problems.EditDistanceSeeded(1, 2), 32, nil)
	return func(n int) ([]int64, *tiling.Tiling) {
		L := base
		for (L+1)*(L+1) < int64(n)*(base+1)*(base+1) {
			L++
		}
		return []int64{L, L}, tl
	}
}

func weakLCS3(quick bool) func(n int) ([]int64, *tiling.Tiling) {
	base := pick(quick, 72, 240)
	tl := mustTiling(problems.LCS3Seeded(2), 8, nil)
	return func(n int) ([]int64, *tiling.Tiling) {
		L := base
		for (L+1)*(L+1)*(L+1) < int64(n)*(base+1)*(base+1)*(base+1) {
			L++
		}
		return []int64{L, L, L}, tl
	}
}

// ---- tile width sweep (Sec VI-C) ----

func expTileSweep(quick bool) {
	// The paper swept the 3-arm bandit up to width 15; at width 15 every
	// 6-D boundary tile is its own shape, walked row by row, so one
	// simulation with several tiles per dimension takes tens of seconds
	// (EXPERIMENTS.md). The sweep runs on the 4-D bandit, where the same
	// overhead-vs-starvation trade-off is reachable.
	p := problems.Bandit2()
	N := pick(quick, 120, 240)
	widths := []int64{6, 9, 12, 18, 24}
	if quick {
		widths = []int64{6, 12, 24}
	}
	nodeCounts := []int{1, 4, 8}
	// Per-tile overhead of 20us stands in for the queue locking, memory
	// management and per-tile MPI bookkeeping of the paper's runtime;
	// it is what makes very small tiles lose at low node counts.
	cost := simsched.DefaultCostModel()
	cost.TileOverhead = 20e-6
	fmt.Printf("2-arm bandit N=%d, 24 cores per node: simulated makespan (s)\n\n", N)
	fmt.Printf("%-8s", "width")
	for _, n := range nodeCounts {
		fmt.Printf(" %8dn", n)
	}
	fmt.Println()
	best := map[int]float64{}
	bestW := map[int]int64{}
	for _, w := range widths {
		tl := mustTiling(p, w, nil)
		fmt.Printf("%-8d", w)
		for _, n := range nodeCounts {
			res, err := simsched.Simulate(tl, []int64{N}, simsched.Config{Nodes: n, Cores: 24, Cost: cost})
			if err != nil {
				panic(err)
			}
			fmt.Printf(" %8.4f", res.Makespan)
			if b, ok := best[n]; !ok || res.Makespan < b {
				best[n] = res.Makespan
				bestW[n] = w
			}
		}
		fmt.Println()
	}
	fmt.Printf("\nbest width per node count:")
	for _, n := range nodeCounts {
		fmt.Printf("  %dn -> w=%d", n, bestW[n])
	}
	fmt.Println()
}

// ---- priority policy and orientation (Sec V-B) ----

func expPrio(quick bool) {
	p := problems.Bandit2()
	N := pick(quick, 100, 200)
	tl := mustTiling(p, 6, nil)
	fmt.Printf("2-arm bandit N=%d on 4 nodes x 24 cores: simulated makespan by ready-tile policy\n\n", N)
	type variant struct {
		name    string
		prio    engine.Priority
		reverse bool
	}
	var base float64
	for _, v := range []variant{
		{"column-major (paper, communication-first)", engine.ColumnMajor, false},
		{"column-major reversed (least-advanced first)", engine.ColumnMajor, true},
		{"level-set (Fig 4b)", engine.LevelSet, false},
		{"fifo", engine.FIFO, false},
	} {
		res, err := simsched.Simulate(tl, []int64{N}, simsched.Config{
			Nodes: 4, Cores: 24, Priority: v.prio, ReverseKey: v.reverse,
		})
		if err != nil {
			panic(err)
		}
		if base == 0 {
			base = res.Makespan
		}
		fmt.Printf("%-46s %.4fs  (%.2fx)\n", v.name, res.Makespan, res.Makespan/base)
	}
	fmt.Println("\nthe reversed orientation is what a long-critical-path implementation")
	fmt.Println("looks like: each node finishes its boundary slab last and starves the")
	fmt.Println("downstream node (the paper's Section IV-J caveat)")
}

// ---- send-buffer sweep (Sec VI-C) ----

func expBufSweep(quick bool) {
	p := problems.Bandit2()
	N := pick(quick, 60, 90)
	tl := mustTiling(p, 6, nil)
	cost := simsched.DefaultCostModel()
	cost.MsgLatency = 100e-6 // long-haul latency: exhausted buffers degenerate to rendezvous
	fmt.Printf("2-arm bandit N=%d on 8 nodes x 24 cores, 100us message latency\n\n", N)
	fmt.Printf("%-10s %-14s %s\n", "sendbufs", "makespan", "vs 16 bufs")
	var base float64
	results := map[int]float64{}
	bufs := []int{16, 8, 4, 2, 1}
	for _, b := range bufs {
		res, err := simsched.Simulate(tl, []int64{N}, simsched.Config{
			Nodes: 8, Cores: 24, SendBufs: b, Cost: cost,
		})
		if err != nil {
			panic(err)
		}
		results[b] = res.Makespan
		if b == 16 {
			base = res.Makespan
		}
	}
	for _, b := range []int{1, 2, 4, 8, 16} {
		fmt.Printf("%-10d %-14s %.2fx\n", b, fmt.Sprintf("%.4fs", results[b]), results[b]/base)
	}
}

// ---- initial tile generation cost (Sec IV-K) ----

func expInitTiles(quick bool) {
	p := problems.Bandit2()
	N := pick(quick, 50, 100)
	tl := mustTiling(p, 6, nil)
	res, err := runEngine(tl, p.Kernel, []int64{N}, engine.Config{Nodes: 2, Threads: 1})
	if err != nil {
		panic(err)
	}
	frac := res.InitTime.Seconds() / res.TotalTime.Seconds()
	fmt.Printf("bandit2 N=%d: tiles %d\n", N, tl.TileCount([]int64{N}))
	// The initial tiles are found inside the balance's pass over the tile
	// space, so generation is bounded by the balance line and InitTime is
	// the serial seeding alone.
	fmt.Printf("initial tile seeding (Sec IV-K, serial): %s = %.3f%% of total %s (paper claims < 0.5%%)\n",
		res.InitTime, 100*frac, res.TotalTime)
	fmt.Printf("load balancing + initial tile generation (Sec IV-J/IV-K, one pass counting directly in place of Ehrhart closed forms): %s = %.3f%%\n",
		res.BalanceTime, 100*res.BalanceTime.Seconds()/res.TotalTime.Seconds())
}

// ---- pending-edge memory (Sec V-B) ----

func expPending(quick bool) {
	p := problems.Bandit2()
	tl := mustTiling(p, 5, nil)
	Ns := []int64{20, 30, 45, 60}
	if quick {
		Ns = []int64{20, 30, 45}
	}
	fmt.Printf("%-6s %-12s %-16s %-14s %s\n", "N", "locations", "peak edge elems", "peak/space", "full-space elems")
	for _, N := range Ns {
		res, err := runEngine(tl, p.Kernel, []int64{N}, engine.Config{})
		if err != nil {
			panic(err)
		}
		loc := (N + 1) * (N + 2) * (N + 3) * (N + 4) / 24
		peak := res.Stats[0].PeakBufferedElems
		fmt.Printf("%-6d %-12d %-16d %-14.4f %d\n", N, loc, peak, float64(peak)/float64(loc), loc)
	}
	fmt.Println("peak/space shrinks with N: pending storage is O(n^(d-1)), the full table Theta(n^d)")
}

// ---- fig8: hyperplane vs prefix load balancing ----

func expFig8(quick bool) {
	p := problems.Bandit2()
	N := pick(quick, 50, 100)
	tl := mustTiling(p, 5, nil)
	fmt.Printf("2-arm bandit N=%d, 24 cores per node: makespan and mean idle fraction\n", N)
	fmt.Println("(the paper reports reduced idle for the hyperplane method; see EXPERIMENTS.md")
	fmt.Println(" for why this reproduction's communication-first priority reverses that)")
	fmt.Println()
	fmt.Printf("%-7s %-22s %-22s\n", "nodes", "prefix (Sec IV-J)", "hyperplane (Fig 8)")
	for _, n := range []int{3, 4, 8} {
		var out [2]string
		for i, m := range []balance.Method{balance.Prefix, balance.Hyperplane} {
			res, err := simsched.Simulate(tl, []int64{N}, simsched.Config{
				Nodes: n, Cores: 24, Balance: m,
			})
			if err != nil {
				panic(err)
			}
			var idle float64
			for _, f := range res.IdleFrac {
				idle += f
			}
			idle /= float64(len(res.IdleFrac))
			out[i] = fmt.Sprintf("%.4fs / %4.1f%% idle", res.Makespan, 100*idle)
		}
		fmt.Printf("%-7d %-22s %-22s\n", n, out[0], out[1])
	}
}
