package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"dpgen/internal/balance"
	"dpgen/internal/mpi"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// ---- 2-arm bandit fixture (Fig 1 of the paper) ----

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

// bandit2Kernel computes the expected number of future successes under
// optimal play with uniform priors.
func bandit2Kernel(c *Ctx) {
	if !c.DepValid[0] { // all four deps share the same validity constraint
		c.V[c.Loc] = 0
		return
	}
	s1, f1 := float64(c.X[0]), float64(c.X[1])
	s2, f2 := float64(c.X[2]), float64(c.X[3])
	p1 := (s1 + 1) / (s1 + f1 + 2)
	p2 := (s2 + 1) / (s2 + f2 + 2)
	v1 := p1*(1+c.V[c.DepLoc[0]]) + (1-p1)*c.V[c.DepLoc[1]]
	v2 := p2*(1+c.V[c.DepLoc[2]]) + (1-p2)*c.V[c.DepLoc[3]]
	if v1 > v2 {
		c.V[c.Loc] = v1
	} else {
		c.V[c.Loc] = v2
	}
}

// bandit2Serial solves the same recurrence with plain nested loops
// (the paper's Figure 1) and returns the full table keyed by coords.
func bandit2Serial(N int64) map[[4]int64]float64 {
	tab := map[[4]int64]float64{}
	get := func(s1, f1, s2, f2 int64) float64 { return tab[[4]int64{s1, f1, s2, f2}] }
	for s1 := N; s1 >= 0; s1-- {
		for f1 := N - s1; f1 >= 0; f1-- {
			for s2 := N - s1 - f1; s2 >= 0; s2-- {
				for f2 := N - s1 - f1 - s2; f2 >= 0; f2-- {
					var v float64
					if s1+f1+s2+f2 < N {
						p1 := (float64(s1) + 1) / (float64(s1) + float64(f1) + 2)
						p2 := (float64(s2) + 1) / (float64(s2) + float64(f2) + 2)
						v1 := p1*(1+get(s1+1, f1, s2, f2)) + (1-p1)*get(s1, f1+1, s2, f2)
						v2 := p2*(1+get(s1, f1, s2+1, f2)) + (1-p2)*get(s1, f1, s2, f2+1)
						v = max(v1, v2)
					}
					tab[[4]int64{s1, f1, s2, f2}] = v
				}
			}
		}
	}
	return tab
}

func TestBandit2SingleNode(t *testing.T) {
	tl := bandit2Tiling(t, 6, nil)
	N := int64(20)
	res, err := Run(tl, bandit2Kernel, []int64{N}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := bandit2Serial(N)[[4]int64{0, 0, 0, 0}]
	if res.Value != want {
		t.Fatalf("Value = %v, want %v (must be bit-identical)", res.Value, want)
	}
	cells := (N + 1) * (N + 2) * (N + 3) * (N + 4) / 24
	if res.Stats[0].CellsComputed != cells {
		t.Errorf("cells = %d, want %d", res.Stats[0].CellsComputed, cells)
	}
	if res.Messages != 0 {
		t.Errorf("single node sent %d messages", res.Messages)
	}
}

func TestBandit2EveryCellMatchesSerial(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	N := int64(13)
	want := bandit2Serial(N)
	got := map[[4]int64]float64{}
	kernel := capturing(bandit2Kernel, func(x []int64, v float64) { got[[4]int64{x[0], x[1], x[2], x[3]}] = v })
	res, err := Run(tl, kernel, []int64{N}, Config{Nodes: 3, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("computed %d cells, want %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("cell %v = %v, want %v", k, g, w)
		}
	}
	if res.Value != want[[4]int64{0, 0, 0, 0}] {
		t.Errorf("goal value mismatch")
	}
}

func TestBandit2HybridConfigsAgree(t *testing.T) {
	tl := bandit2Tiling(t, 5, []string{"s1", "f1"})
	N := int64(17)
	var base float64
	for i, cfg := range []Config{
		{Nodes: 1, Threads: 1},
		{Nodes: 1, Threads: 8},
		{Nodes: 4, Threads: 2},
		{Nodes: 8, Threads: 1, SendBufs: 1, RecvBufs: 1},
		// The deadlock-prone shape the paper's ranks poll for — one
		// thread per node, one send and one receive buffer, every node
		// sending at once — completes because each node's receiver
		// drains its inbox while its worker is blocked in Send.
		{Nodes: 4, Threads: 1, SendBufs: 1, RecvBufs: 1},
		{Nodes: 2, Threads: 2},
		{Nodes: 3, Threads: 2},
		{Nodes: 2, Threads: 3, Priority: LevelSet},
		{Nodes: 2, Threads: 3, Priority: FIFO},
		{Nodes: 3, Threads: 2, Balance: balance.Hyperplane},
	} {
		res, err := Run(tl, bandit2Kernel, []int64{N}, cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		if i == 0 {
			base = res.Value
		} else if res.Value != base {
			t.Errorf("cfg %d: Value = %v, want %v", i, res.Value, base)
		}
		var cells, sent, recv int64
		for _, st := range res.Stats {
			cells += st.CellsComputed
			sent += st.EdgesSentRemote
			recv += st.EdgesRecvRemote
		}
		want := (N + 1) * (N + 2) * (N + 3) * (N + 4) / 24
		if cells != want {
			t.Errorf("cfg %d: computed %d cells, want %d", i, cells, want)
		}
		if sent != recv {
			t.Errorf("cfg %d: sent %d != recv %d", i, sent, recv)
		}
	}
	if base <= float64(N)/2 || base > float64(N) {
		t.Errorf("bandit value %v implausible for N=%d", base, N)
	}
}

func TestRemoteEdgesFlow(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1"})
	res, err := Run(tl, bandit2Kernel, []int64{16}, Config{Nodes: 4, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sent, recv int64
	for _, st := range res.Stats {
		sent += st.EdgesSentRemote
		recv += st.EdgesRecvRemote
	}
	if sent == 0 {
		t.Error("multi-node run sent no remote edges")
	}
	if sent != recv {
		t.Errorf("sent %d != recv %d", sent, recv)
	}
	if res.Messages != sent {
		t.Errorf("comm messages %d != sent edges %d", res.Messages, sent)
	}
}

// ---- 2-D problems: diagonal template and negative component ----

// diag2 computes a Delannoy-style path count from (N,N) down to (0,0):
// D(x,y) = D(x+1,y) + D(x,y+1) + D(x+1,y+1), D at the upper boundary
// seeds 1 at (N,N). Checked against an independent serial recursion.
func TestDiagonalTemplate(t *testing.T) {
	sp := spec.MustNew("delannoy", []string{"N"}, []string{"x", "y"})
	sp.MustConstrain("0 <= x <= N")
	sp.MustConstrain("0 <= y <= N")
	sp.AddDep("r", 1, 0)
	sp.AddDep("d", 0, 1)
	sp.AddDep("rd", 1, 1)
	sp.TileWidths = []int64{3, 3}
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	kernel := func(c *Ctx) {
		N := c.P[0]
		if c.X[0] == N && c.X[1] == N {
			c.V[c.Loc] = 1
			return
		}
		var v float64
		if c.DepValid[0] {
			v += c.V[c.DepLoc[0]]
		}
		if c.DepValid[1] {
			v += c.V[c.DepLoc[1]]
		}
		if c.DepValid[2] {
			v += c.V[c.DepLoc[2]]
		}
		c.V[c.Loc] = v
	}
	N := int64(7)
	res, err := Run(tl, kernel, []int64{N}, Config{Nodes: 3, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Serial Delannoy-style reference.
	tab := make([][]float64, N+1)
	for i := range tab {
		tab[i] = make([]float64, N+1)
	}
	for x := N; x >= 0; x-- {
		for y := N; y >= 0; y-- {
			if x == N && y == N {
				tab[x][y] = 1
				continue
			}
			var v float64
			if x+1 <= N {
				v += tab[x+1][y]
			}
			if y+1 <= N {
				v += tab[x][y+1]
			}
			if x+1 <= N && y+1 <= N {
				v += tab[x+1][y+1]
			}
			tab[x][y] = v
		}
	}
	if res.Value != tab[0][0] {
		t.Fatalf("Value = %v, want %v", res.Value, tab[0][0])
	}
	if res.Value != 48639 { // Delannoy number D(7,7)
		t.Errorf("D(7,7) = %v, want 48639", res.Value)
	}
}

func TestNegativeTemplateComponent(t *testing.T) {
	// f(x,y) = f(x-2,y+1) + f(x,y+1) + 1 with zero outside; goal (N, 0).
	sp := spec.MustNew("neg", []string{"N"}, []string{"x", "y"})
	sp.MustConstrain("0 <= x <= N")
	sp.MustConstrain("0 <= y <= N")
	sp.AddDep("a", -2, 1)
	sp.AddDep("b", 0, 1)
	sp.TileWidths = []int64{4, 4}
	sp.Goal = []int64{6, 0}
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	kernel := func(c *Ctx) {
		v := 1.0
		if c.DepValid[0] {
			v += c.V[c.DepLoc[0]]
		}
		if c.DepValid[1] {
			v += c.V[c.DepLoc[1]]
		}
		c.V[c.Loc] = v
	}
	N := int64(6)
	res, err := Run(tl, kernel, []int64{N}, Config{Nodes: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Serial reference: y descending, x ascending.
	tab := make(map[[2]int64]float64)
	for y := N; y >= 0; y-- {
		for x := int64(0); x <= N; x++ {
			v := 1.0
			if x-2 >= 0 && y+1 <= N {
				v += tab[[2]int64{x - 2, y + 1}]
			}
			if y+1 <= N {
				v += tab[[2]int64{x, y + 1}]
			}
			tab[[2]int64{x, y}] = v
		}
	}
	if want := tab[[2]int64{6, 0}]; res.Value != want {
		t.Fatalf("Value = %v, want %v", res.Value, want)
	}
}

// ---- Priority policy memory behaviour (Figures 4 and 5) ----

// pipe2 builds an n x n tile grid (2-D square space) with unit deps.
func pipe2(t testing.TB, tilesPerDim int64) *tiling.Tiling {
	t.Helper()
	w := int64(2)
	sp := spec.MustNew("pipe2", []string{"N"}, []string{"x", "y"})
	sp.MustConstrain("0 <= x <= N")
	sp.MustConstrain("0 <= y <= N")
	sp.AddDep("r", 1, 0)
	sp.AddDep("d", 0, 1)
	sp.TileWidths = []int64{w, w}
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// capturing wraps k to hand rec every cell it computed: for t < Done,
// cell t at V[Loc + t*Step] with coordinate X[Inner] + t*Dir. Calls to
// rec are serialized, so it may write a plain map; x is reused.
func capturing(k Kernel, rec func(x []int64, v float64)) Kernel {
	var mu sync.Mutex
	return func(c *Ctx) {
		k(c)
		x := slices.Clone(c.X)
		mu.Lock()
		defer mu.Unlock()
		for t := int64(0); t < c.Done; t++ {
			rec(x, c.V[c.Loc+t*c.Step])
			x[c.Inner] += c.Dir
		}
	}
}

func sumKernel(c *Ctx) {
	var v float64 = 1
	if c.DepValid[0] {
		v += c.V[c.DepLoc[0]]
	}
	if c.DepValid[1] {
		v += c.V[c.DepLoc[1]]
	}
	c.V[c.Loc] = v
}

func TestPriorityMemoryFig4(t *testing.T) {
	// Single node, single thread: column-major buffers ~n+1 edges at
	// peak, level-set ~2(n-1) (Figure 4). n = 8 tiles per dimension.
	n := int64(8)
	tl := pipe2(t, n)
	N := 2*n - 1 // w=2 -> n tiles per dim
	peak := map[Priority]int64{}
	for _, prio := range []Priority{ColumnMajor, LevelSet} {
		res, err := Run(tl, sumKernel, []int64{N}, Config{Priority: prio})
		if err != nil {
			t.Fatal(err)
		}
		peak[prio] = res.Stats[0].PeakPendingEdges
	}
	if peak[LevelSet] <= peak[ColumnMajor] {
		t.Errorf("level-set peak %d not above column-major %d", peak[LevelSet], peak[ColumnMajor])
	}
	// Column-major should be near n+1; allow slack for corner effects.
	if peak[ColumnMajor] > n+3 {
		t.Errorf("column-major peak %d, want about %d", peak[ColumnMajor], n+1)
	}
	if peak[LevelSet] < 2*(n-2) {
		t.Errorf("level-set peak %d, want about %d", peak[LevelSet], 2*(n-1))
	}
}

// TestMaxAcrossWorkersAndNodes: Result.Max is folded per worker and
// merged over workers and nodes; whichever worker of whichever node ran
// the tile holding the maximum, the merge must find it. The values
// depend on the coordinates alone, so the maximum sits away from the
// goal and is known by brute force.
func TestMaxAcrossWorkersAndNodes(t *testing.T) {
	tl := pipe2(t, 16)
	N := int64(31)
	val := func(x, y int64) float64 { return float64((x*37 + y*101) % 997) }
	want := math.Inf(-1)
	for x := int64(0); x <= N; x++ {
		for y := int64(0); y <= N; y++ {
			want = math.Max(want, val(x, y))
		}
	}
	// Shifted below zero too, where a fold that starts a chain at 0, not
	// −Inf, reports 0.
	for _, shift := range []float64{0, -998} {
		k := func(c *Ctx) { c.V[c.Loc] = val(c.X[0], c.X[1]) + shift }
		for _, cfg := range []Config{{}, {Threads: 2}, {Nodes: 2, Threads: 2}} {
			for i := 0; i < 5; i++ { // the worker that gets the tile varies run to run
				res, err := Run(tl, k, []int64{N}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Max != want+shift {
					t.Fatalf("shift %v nodes %d threads %d: Max %v, want %v", shift, cfg.Nodes, cfg.Threads, res.Max, want+shift)
				}
			}
		}
	}
}

// ---- error paths ----

func TestRunErrors(t *testing.T) {
	tl := bandit2Tiling(t, 6, nil)
	if _, err := Run(tl, nil, []int64{10}, Config{}); err == nil {
		t.Error("nil kernel should fail")
	}
	if _, err := Run(tl, bandit2Kernel, []int64{10, 20}, Config{}); err == nil {
		t.Error("wrong param arity should fail")
	}
	if _, err := Run(tl, bandit2Kernel, []int64{-1}, Config{}); err == nil {
		t.Error("goal outside space should fail")
	}
}

func TestMoreNodesThanTiles(t *testing.T) {
	tl := bandit2Tiling(t, 6, nil)
	// N=5 with w=6: a single tile; 4 nodes, 3 of which own nothing.
	res, err := Run(tl, bandit2Kernel, []int64{5}, Config{Nodes: 4, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := bandit2Serial(5)[[4]int64{0, 0, 0, 0}]
	if res.Value != want {
		t.Errorf("Value = %v, want %v", res.Value, want)
	}
}

func TestStatsSanity(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	N := int64(15)
	res, err := Run(tl, bandit2Kernel, []int64{N}, Config{Nodes: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var tiles int64
	for _, st := range res.Stats {
		tiles += st.TilesExecuted
	}
	if want := tl.TileCount([]int64{N}); tiles != want {
		t.Errorf("tiles executed %d, want %d", tiles, want)
	}
	if res.TotalTime < res.InitTime {
		t.Error("TotalTime < InitTime")
	}
	if len(res.Work) != 2 {
		t.Errorf("Work = %v", res.Work)
	}
}

func TestDeterministicValuesAcrossRuns(t *testing.T) {
	tl := bandit2Tiling(t, 5, []string{"s1"})
	N := int64(12)
	collect := func(nodes, threads int) map[string]float64 {
		m := map[string]float64{}
		kernel := capturing(bandit2Kernel, func(x []int64, v float64) { m[fmt.Sprint(x)] = v })
		_, err := Run(tl, kernel, []int64{N}, Config{Nodes: nodes, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := collect(1, 1)
	b := collect(3, 4)
	if len(a) != len(b) {
		t.Fatalf("cell counts differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("cell %s: %v vs %v", k, v, b[k])
		}
	}
}

// TestNonDefaultLoopOrder verifies that reordering the loop nest changes
// neither values nor coverage (the paper's order input only affects
// memory layout and iteration order).
func TestNonDefaultLoopOrder(t *testing.T) {
	mk := func(order []string) *tiling.Tiling {
		sp := spec.MustNew("bandit2", []string{"N"}, []string{"s1", "f1", "s2", "f2"})
		sp.MustConstrain("s1 + f1 + s2 + f2 <= N")
		for _, v := range sp.Vars {
			sp.MustConstrain(v + " >= 0")
		}
		sp.AddDep("r1", 1, 0, 0, 0)
		sp.AddDep("r2", 0, 1, 0, 0)
		sp.AddDep("r3", 0, 0, 1, 0)
		sp.AddDep("r4", 0, 0, 0, 1)
		sp.TileWidths = []int64{4, 4, 4, 4}
		sp.LoopOrder = order
		tl, err := tiling.New(sp)
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}
	N := int64(11)
	var want float64
	for i, order := range [][]string{
		{"s1", "f1", "s2", "f2"},
		{"f2", "s2", "f1", "s1"},
		{"s2", "f2", "s1", "f1"},
	} {
		res, err := Run(mk(order), bandit2Kernel, []int64{N}, Config{Nodes: 2, Threads: 2})
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if i == 0 {
			want = res.Value
		} else if res.Value != want {
			t.Errorf("order %v: Value %v != %v", order, res.Value, want)
		}
	}
}

// TestRectangularTiles verifies non-square tile widths.
func TestRectangularTiles(t *testing.T) {
	sp := spec.MustNew("rect", []string{"N"}, []string{"x", "y"})
	sp.MustConstrain("0 <= x <= N")
	sp.MustConstrain("0 <= y <= N")
	sp.AddDep("r", 1, 0)
	sp.AddDep("d", 0, 1)
	sp.TileWidths = []int64{3, 7}
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tl, sumKernel, []int64{12}, Config{Nodes: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// sumKernel computes f(x,y) = 1 + f(x+1,y) + f(x,y+1); f(0,0) counts
	// weighted paths; compare against direct recursion.
	memo := map[[2]int64]float64{}
	var f func(x, y int64) float64
	f = func(x, y int64) float64 {
		if x > 12 || y > 12 {
			return 0
		}
		k := [2]int64{x, y}
		if v, ok := memo[k]; ok {
			return v
		}
		v := 1 + f(x+1, y) + f(x, y+1)
		memo[k] = v
		return v
	}
	if want := f(0, 0); res.Value != want {
		t.Fatalf("Value = %v, want %v", res.Value, want)
	}
}

// TestEmptyParamSpace: a parameter choice that empties the space must
// error rather than hang.
func TestEmptyParamSpace(t *testing.T) {
	sp := spec.MustNew("gated", []string{"N"}, []string{"x"})
	sp.MustConstrain("3 <= x <= N")
	sp.AddDep("r", 1)
	sp.TileWidths = []int64{4}
	sp.Goal = []int64{3}
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	k := func(c *Ctx) {
		v := 1.0
		if c.DepValid[0] {
			v += c.V[c.DepLoc[0]]
		}
		c.V[c.Loc] = v
	}
	if _, err := Run(tl, k, []int64{1}, Config{}); err == nil {
		t.Error("empty space should error")
	}
	// And a valid param works.
	if _, err := Run(tl, k, []int64{5}, Config{}); err != nil {
		t.Errorf("valid params failed: %v", err)
	}
}

// TestKernelPanicAnnotated: a panicking kernel must crash with the tile
// identified.
func TestKernelPanicAnnotated(t *testing.T) {
	tl := bandit2Tiling(t, 6, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "kernel panic in tile") {
			t.Fatalf("panic not annotated: %v", msg)
		}
	}()
	// Threads=1 so the panic unwinds through this goroutine's Run call...
	// it does not: workers are separate goroutines, so the panic would
	// crash the process. Instead invoke execTile's path via a tiny run
	// in the same goroutine using the exported API is impossible;
	// exercise the annotation through a direct worker call.
	n := newTestNode(prepareForTest(tl, []int64{5}), func(c *Ctx) { panic("boom") }, Config{})
	p := &pendTile{Tile: tileState{coord: []int64{0, 0, 0, 0}}}
	n.execTile(p, n.newWorkerState(0), false)
}

// TestCrashedNodeNeverFinishes: once the injected crash has fired, the
// node must not report completion even if another worker retires its
// last tile before CrashFn runs — otherwise the rank enters the final
// merge and dies inside it, which recovery cannot repair (the
// TestKillRecoverBitIdentical/seed3 failure).
func TestCrashedNodeNeverFinishes(t *testing.T) {
	n := newTestNode(prepareForTest(bandit2Tiling(t, 6, nil), []int64{5}), nil, Config{})
	n.ownedTotal, n.executed, n.crashed = 4, 4, true
	n.checkFinished()
	stillArmed := false
	n.finishOnce.Do(func() { stillArmed = true })
	if !stillArmed {
		t.Fatal("a node whose crash fired reported itself finished")
	}
}

// prepareForTest prepares a one-node run of tl at params.
func prepareForTest(tl *tiling.Tiling, params []int64) *Prepared {
	prep, err := prepare(tl, params, 1, []int{0}, Config{}.Balance)
	if err != nil {
		panic(err)
	}
	return prep
}

// newTestNode builds rank 0 of a one-node run of prep over its own
// communicator, neither seeded nor launched.
func newTestNode(prep *Prepared, kernel Kernel, cfg Config) *node {
	cfg = cfg.withDefaults()
	c, err := mpi.NewComm(1, cfg.SendBufs, cfg.RecvBufs)
	if err != nil {
		panic(err)
	}
	return newNode(prep, kernel, cfg, c.Rank(0))
}
