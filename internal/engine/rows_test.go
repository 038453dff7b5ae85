package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// slackGrid is pipe2's square grid with a second parameter M that only
// appears in the slack constraint x + y <= M: any M >= 2N describes the
// same space, so M can be inflated past the row plan's overflow proof
// without changing a single cell.
func slackGrid(t testing.TB) *tiling.Tiling {
	t.Helper()
	sp := spec.MustNew("slackgrid", []string{"N", "M"}, []string{"x", "y"})
	sp.MustConstrain("0 <= x <= N")
	sp.MustConstrain("0 <= y <= N")
	sp.MustConstrain("x + y <= M")
	sp.AddDep("r", 1, 0)
	sp.AddDep("d", 0, 1)
	sp.TileWidths = []int64{2, 2}
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// sumSerial is sumKernel's recurrence with plain loops: the number of
// monotone lattice paths, a value that overflows nothing at N = 15 and
// differs in every cell.
func sumSerial(N int64) map[[2]int64]float64 {
	tab := map[[2]int64]float64{}
	for x := N; x >= 0; x-- {
		for y := N; y >= 0; y-- {
			v := 1.0
			if x < N {
				v += tab[[2]int64{x + 1, y}]
			}
			if y < N {
				v += tab[[2]int64{x, y + 1}]
			}
			tab[[2]int64{x, y}] = v
		}
	}
	return tab
}

// TestRowsOverflowTakesCheckedPath: parameters that defeat the row
// plan's overflow proof (every checked evaluation still fits int64)
// must run the whole job on the checked reference path — as if
// DisableFastPath were set — and still match the serial table cell for
// cell.
func TestRowsOverflowTakesCheckedPath(t *testing.T) {
	tl := slackGrid(t)
	const N = 15
	want := sumSerial(N)
	for _, tc := range []struct {
		M        int64
		rowPath  bool
		scenario string
	}{
		{2 * N, true, "proof holds"},
		{3 << 61, false, "proof fails"},
	} {
		params := []int64{N, tc.M}
		if ok := tl.BindRows(params).OK(); ok != tc.rowPath {
			t.Fatalf("%s: BindRows(%v).OK() = %v", tc.scenario, params, ok)
		}
		got := map[[2]int64]float64{}
		res, err := Run(tl, capturing(sumKernel, func(x []int64, v float64) { got[[2]int64{x[0], x[1]}] = v }), params, Config{Threads: 2})
		if err != nil {
			t.Fatalf("%s: %v", tc.scenario, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d cells computed, want %d", tc.scenario, len(got), len(want))
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("%s: cell %v = %v, serial %v", tc.scenario, k, got[k], w)
			}
		}
		if res.Value != want[[2]int64{0, 0}] {
			t.Errorf("%s: Value %v, serial %v", tc.scenario, res.Value, want[[2]int64{0, 0}])
		}
	}
}

// cellTrace records everything a kernel can observe at one cell.
func cellTrace(c *Ctx) string {
	return fmt.Sprint(c.X, c.I, c.Loc, c.DepLoc, c.DepValid, c.DepLen, c.DepStride, c.P)
}

// rowsFixture is one job of the row-path tests below.
type rowsFixture struct {
	tl     *tiling.Tiling
	kernel Kernel
	params []int64
	dir    int64 // the innermost loop's direction
}

// footprintKernel folds every dependence's usable footprint, point or
// range, with a coordinate term: every cell's value differs and depends
// on each footprint cell and on their order.
func footprintKernel(c *Ctx) {
	v := float64(c.X[0] + 1)
	for j, n := range c.DepLen {
		for k := int64(0); k < n; k++ {
			v += c.V[c.DepLoc[j]+k*c.DepStride[j]] / float64(j+2)
		}
	}
	c.V[c.Loc] = v
}

// rowsFixtures are the jobs the row-path tests share: the 4-D simplex
// (descending rows cut short by the diagonal, every row's first cell
// invalid), a square grid with interior tiles, the same grid with its
// dependences reversed (an ascending innermost loop), a range template
// whose length changes at every cell of a row and clamps at the
// boundary, and a knapsack-shaped one whose clamped length holds for W
// cells at a time.
func rowsFixtures(t *testing.T) map[string]rowsFixture {
	mk := func(sp *spec.Spec) *tiling.Tiling {
		tl, err := tiling.New(sp)
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}
	prefix := spec.MustNew("prefixsum", []string{"N"}, []string{"x", "y"})
	prefix.MustConstrain("0 <= x <= N")
	prefix.MustConstrain("0 <= y <= N")
	prefix.MustConstrain("x + 2*y <= 2*N")
	prefix.Bound("N", 1, 24)
	prefix.AddDep("up", 1, 0)
	prefix.MustAddDepSpec("row", "0, 1", "0, 1", "N - y")
	prefix.TileWidths = []int64{3, 4}

	asc := spec.MustNew("ascending", []string{"N"}, []string{"x", "y"})
	asc.MustConstrain("0 <= x <= N")
	asc.MustConstrain("0 <= y <= N")
	asc.AddDep("l", -1, 0)
	asc.AddDep("u", 0, -1)
	asc.TileWidths = []int64{3, 5}
	asc.Goal = []int64{9, 9}

	knap := spec.MustNew("knapshape", []string{"N", "C", "W"}, []string{"a", "u"})
	knap.MustConstrain("0 <= a <= N - 1")
	knap.MustConstrain("0 <= u <= C")
	knap.Bound("W", 1, 4)
	knap.MustAddDepSpec("take", "1, 0", "0, W", "4")
	knap.TileWidths = []int64{2, 8}

	return map[string]rowsFixture{
		"bandit2":   {bandit2Tiling(t, 4, nil), bandit2Kernel, []int64{13}, -1},
		"pipe2":     {pipe2(t, 8), sumKernel, []int64{15}, -1},
		"ascending": {mk(asc), sumKernel, []int64{9}, 1},
		"range":     {mk(prefix), footprintKernel, []int64{11}, -1},
		"knapshape": {mk(knap), footprintKernel, []int64{5, 21, 3}, -1},
	}
}

// TestRowsCellOrderMatchesEnumerator: on one worker the tile order is
// deterministic, so the row path and the checked enumerator must show
// the kernel the same cells in the same order with the same X, I,
// locations, validity flags and lengths, and it must compute the same
// value at each, on every fixture.
func TestRowsCellOrderMatchesEnumerator(t *testing.T) {
	for name, fx := range rowsFixtures(t) {
		record := func(disable bool) (seen []string, res *Result) {
			res, err := Run(fx.tl, func(c *Ctx) {
				fx.kernel(c)
				seen = append(seen, cellTrace(c), fmt.Sprint(c.V[c.Loc]))
			}, fx.params, Config{DisableFastPath: disable})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return seen, res
		}
		rows, fast := record(false)
		ref, slow := record(true)
		if fast.Value != slow.Value || len(rows) != len(ref) {
			t.Fatalf("%s: row path %v over %d events, enumerator %v over %d",
				name, fast.Value, len(rows), slow.Value, len(ref))
		}
		for i := range ref {
			if rows[i] != ref[i] {
				t.Fatalf("%s: event %d: row path %s, enumerator %s", name, i, rows[i], ref[i])
			}
		}
	}
}

// taking turns a per-cell kernel into a run kernel by the letter of the
// contract: it computes the first take(N) cells on offer — cell t at
// Loc + t*Step, dependence j at DepLoc[j] + t*Step, X[Inner] and
// I[Inner] advanced by t*Dir — and reports them in Done. each, when not
// nil, sees every cell's Ctx right after the cell is computed.
func taking(k Kernel, take func(n int64) int64, each func(c *Ctx)) Kernel {
	return func(c *Ctx) {
		m := take(c.N)
		for t := int64(0); t < m; t++ {
			if t > 0 {
				c.Loc += c.Step
				for j := range c.DepLoc {
					c.DepLoc[j] += c.Step
				}
				c.X[c.Inner] += c.Dir
				c.I[c.Inner] += c.Dir
			}
			k(c)
			if each != nil {
				each(c)
			}
		}
		c.Done = m
	}
}

func takeOne(int64) int64   { return 1 }
func takeTwo(n int64) int64 { return min(n, 2) }
func takeAll(n int64) int64 { return n }

// offer is one kernel call as the run contract describes it.
type offer struct {
	x, i, depLoc, depLen []int64
	loc, n               int64
	depValid             []bool
}

func recordOffer(c *Ctx) offer {
	return offer{
		x: slices.Clone(c.X), i: slices.Clone(c.I), depLoc: slices.Clone(c.DepLoc), depLen: slices.Clone(c.DepLen),
		loc: c.Loc, n: c.N, depValid: slices.Clone(c.DepValid),
	}
}

// TestRowsRunOffersTileWalkerRuns: on one worker, the offers a
// one-cell-at-a-time kernel sees must chain — N counting down to 1
// while Loc and every DepLoc advance by Step, X[Inner] and I[Inner] by
// Dir, and everything else holds — each chain is as long as it can be
// (the adjacent next cell of the same tile row, when there is one,
// differs in validity or length), and a kernel that takes all N sees
// exactly the chain heads. Step and Dir carry the innermost loop's
// direction, descending and ascending; the simplex contributes rows cut
// by a validity change, the two range fixtures lengths that change
// mid-run.
func TestRowsRunOffersTileWalkerRuns(t *testing.T) {
	for name, fx := range rowsFixtures(t) {
		in := fx.tl.Dense[len(fx.tl.Dense)-1]
		offers := func(take func(int64) int64) (seen []offer) {
			k := taking(fx.kernel, take, nil)
			var step, dir int64
			var inner int
			if _, err := Run(fx.tl, func(c *Ctx) {
				step, inner, dir = c.Step, c.Inner, c.Dir
				seen = append(seen, recordOffer(c))
				k(c)
			}, fx.params, Config{}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if dir != fx.dir || dir != int64(in.Dir) || step != dir*in.Stride || inner != in.Var {
				t.Fatalf("%s: Ctx Step=%d Inner=%d Dir=%d, innermost level %+v", name, step, inner, dir, in)
			}
			return seen
		}
		cells, runs := offers(takeOne), offers(takeAll)
		var heads []offer
		var cut, long int
		for k, o := range cells {
			if k == 0 || cells[k-1].n == 1 {
				heads = append(heads, o)
				if o.n > 1 {
					long++
				}
			}
			if k == 0 {
				continue
			}
			prev := cells[k-1]
			// next is prev advanced by one cell of a run.
			next := recordOffer(&Ctx{X: prev.x, I: prev.i, DepLoc: prev.depLoc, DepLen: prev.depLen, DepValid: prev.depValid,
				Loc: prev.loc + int64(in.Dir)*in.Stride, N: prev.n - 1})
			next.x[in.Var] += int64(in.Dir)
			next.i[in.Var] += int64(in.Dir)
			for j := range next.depLoc {
				next.depLoc[j] += int64(in.Dir) * in.Stride
			}
			if prev.n > 1 {
				if fmt.Sprint(o) != fmt.Sprint(next) {
					t.Fatalf("%s: call %d: offer %+v does not continue %+v", name, k, o, prev)
				}
				continue
			}
			// A chain ended: if the next offer is the adjacent cell of the
			// same tile row, something about the dependences must differ.
			if slices.Equal(o.x, next.x) && slices.Equal(o.i, next.i) {
				cut++
				if slices.Equal(o.depValid, prev.depValid) && slices.Equal(o.depLen, prev.depLen) {
					t.Fatalf("%s: call %d: run cut short before %+v, same validity and lengths as %+v", name, k, o, prev)
				}
			}
		}
		if fmt.Sprint(runs) != fmt.Sprint(heads) {
			t.Fatalf("%s: a take-all kernel saw %d offers, the one-cell kernel's %d chains differ", name, len(runs), len(heads))
		}
		// In "range" the length changes at every cell: all offers are 1.
		if (long == 0) != (name == "range") {
			t.Errorf("%s: %d offers longer than one cell", name, long)
		}
		if name != "pipe2" && name != "ascending" && cut == 0 {
			t.Errorf("%s: no row was cut into several offers", name)
		}
	}
}

// TestRowsRunDoneEquivalence: a kernel that takes one cell per call, one
// that takes min(N, 2) and one that takes all N compute the same cells
// in the same order with the same view of each, and so the same Value
// and Max, bit for bit.
func TestRowsRunDoneEquivalence(t *testing.T) {
	for name, fx := range rowsFixtures(t) {
		type outcome struct {
			cells  []string
			res    *Result
			offers int
		}
		run := func(take func(int64) int64) outcome {
			var out outcome
			k := taking(fx.kernel, take, func(c *Ctx) { out.cells = append(out.cells, cellTrace(c), fmt.Sprint(c.V[c.Loc])) })
			res, err := Run(fx.tl, func(c *Ctx) {
				out.offers++
				k(c)
			}, fx.params, Config{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out.res = res
			return out
		}
		ref := run(takeOne)
		for tname, take := range map[string]func(int64) int64{"min(N,2)": takeTwo, "N": takeAll} {
			got := run(take)
			if got.res.Value != ref.res.Value || got.res.Max != ref.res.Max {
				t.Fatalf("%s take %s: Value %v Max %v, one cell per call gives %v %v",
					name, tname, got.res.Value, got.res.Max, ref.res.Value, ref.res.Max)
			}
			if !slices.Equal(got.cells, ref.cells) {
				t.Fatalf("%s take %s: cell sequence differs from one cell per call", name, tname)
			}
			if name != "range" && got.offers >= ref.offers {
				t.Errorf("%s take %s: %d calls, one cell per call makes %d", name, tname, got.offers, ref.offers)
			}
		}
	}
}

// TestRowsRunDoneOutOfRange: a kernel answering Done = 0 or Done = N+1
// is reported by name, on the row path and on the checked path, and a
// kernel panic names the run it was offered.
func TestRowsRunDoneOutOfRange(t *testing.T) {
	fx := rowsFixtures(t)["pipe2"]
	// firstTile executes the job's first initial tile on this goroutine
	// and returns what it panicked with.
	firstTile := func(k Kernel, cfg Config) (msg string) {
		cfg = cfg.withDefaults()
		prep, err := prepare(fx.tl, fx.params, 1, []int{0}, cfg.Balance)
		if err != nil {
			t.Fatal(err)
		}
		n := newTestNode(prep, k, cfg)
		defer func() { msg = fmt.Sprint(recover()) }()
		n.execTile(&pendTile{Tile: tileState{coord: prep.assign.Initial[0]}}, n.newWorkerState(0), false)
		return ""
	}
	for _, disable := range []bool{false, true} {
		cfg := Config{DisableFastPath: disable}
		var n int64
		msg := firstTile(func(c *Ctx) { n = c.N; c.Done = 0 }, cfg)
		if want := fmt.Sprintf("engine: kernel set Done=0 of N=%d in tile", n); !strings.Contains(msg, want) {
			t.Errorf("disable=%v: Done=0 panicked with %q, want %q", disable, msg, want)
		}
		msg = firstTile(func(c *Ctx) { n = c.N; c.Done = c.N + 1 }, cfg)
		if want := fmt.Sprintf("engine: kernel set Done=%d of N=%d in tile", n+1, n); !strings.Contains(msg, want) {
			t.Errorf("disable=%v: Done=N+1 panicked with %q, want %q", disable, msg, want)
		}
		var x string
		msg = firstTile(func(c *Ctx) { x, n = fmt.Sprint(c.X), c.N; panic("boom") }, cfg)
		if want := fmt.Sprintf("(last run offered: X=%s N=%d): boom", x, n); !strings.Contains(msg, "kernel panic in tile") || !strings.Contains(msg, want) {
			t.Errorf("disable=%v: kernel panic reported as %q, want the tile and %q", disable, msg, want)
		}
	}
}

// TestRowsUnpackMismatchNamesSizes: an edge shorter or longer than its
// partial slab is refused with both sizes and the side that is wrong, on
// the shape path and on the checked path.
func TestRowsUnpackMismatchNamesSizes(t *testing.T) {
	tl, params := bandit2Tiling(t, 4, nil), []int64{13}
	plan := tl.BindRows(params)
	probe := plan.NewProbe()
	// A consumer whose producer along some dependence is a boundary tile
	// with a partial slab, short enough that one extra value is not the
	// run's full slab either.
	var consumer []int64
	var dep, cells int
	tl.ForEachTile(params, func(c []int64) bool {
		for j, td := range tl.TileDeps {
			producer := make([]int64, len(c))
			for k, off := range td.Offset {
				producer[k] = c[k] + off
			}
			if !probe.InSpace(producer) {
				continue
			}
			n := 0
			tl.ForEachEdgeCell(params, producer, j, func([]int64) bool { n++; return true })
			if n > 0 && int64(n+1) < plan.InteriorEdgeSize(j) {
				consumer, dep, cells = slices.Clone(c), j, n
				return false
			}
		}
		return true
	})
	if consumer == nil {
		t.Fatal("no partial slab in the space")
	}
	for _, disable := range []bool{false, true} {
		cfg := Config{DisableFastPath: disable}.withDefaults()
		prep, err := prepare(tl, params, 1, []int{0}, cfg.Balance)
		if err != nil {
			t.Fatal(err)
		}
		n := newTestNode(prep, bandit2Kernel, cfg)
		for _, tc := range []struct {
			values int
			side   string
		}{{cells - 1, "short"}, {cells + 1, "long"}} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				p := &pendTile{Tile: tileState{coord: consumer, edges: []edge{{dep: dep, data: make([]float64, tc.values)}}}}
				n.unpackEdges(p, n.newWorkerState(0))
				return ""
			}()
			want := fmt.Sprintf("engine: unpack size mismatch: edge %d of tile %v has %d values for %d slab cells (the edge is %s)",
				dep, consumer, tc.values, cells, tc.side)
			if msg != want {
				t.Errorf("disable=%v: %s edge panicked with %q, want %q", disable, tc.side, msg, want)
			}
		}
	}
}
