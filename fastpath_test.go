package dpgen

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"dpgen/internal/engine"
	"dpgen/internal/problems"
	"dpgen/internal/tiling"
)

// perCell hides the run from a kernel: N is 1 at every call, so a
// run-capable kernel executes its one body a cell at a time — the
// reference its run form is diffed against, and the "cell" side of
// BenchmarkRunKernel.
func perCell(k engine.Kernel) engine.Kernel {
	return func(c *engine.Ctx) {
		c.N = 1
		k(c)
	}
}

// equivalenceInstance is one problem instance of the equivalence tests;
// nil params are the problem's defaults.
type equivalenceInstance struct {
	name, problem string
	params        []int64
}

// equivalenceInstances is every builtin at its default parameters, then
// knap at the other step widths W its bounds allow.
func equivalenceInstances() []equivalenceInstance {
	var ins []equivalenceInstance
	for _, name := range problems.Names() {
		ins = append(ins, equivalenceInstance{name, name, nil})
	}
	for _, w := range []int64{1, 2, 4} {
		ins = append(ins, equivalenceInstance{fmt.Sprintf("knap-W%d", w), "knap", []int64{10, 30, w}})
	}
	return ins
}

// dagEdges counts the tile graph's edges: per tile, its tile
// dependences whose producer exists.
func dagEdges(tl *tiling.Tiling, params []int64) int64 {
	var n int64
	tl.ForEachTile(params, func(t []int64) bool {
		n += int64(tl.DepCount(params, t))
		return true
	})
	return n
}

// TestFastPathEquivalence is the bit-for-bit contract of the interior
// fast path: for every builtin problem and every runtime configuration,
// the fast path and the forced-slow path (DisableFastPath) must produce
// identical Result.Value, identical Result.Max, and identical per-node
// CellsComputed — and the value must equal the serial reference solver
// exactly. Floating-point results are compared with ==, not a tolerance:
// the fast path reorders no arithmetic, it only skips checks that are
// statically known to pass. That diff also compares every run-form
// kernel at the run lengths the row path offers against the same body at
// run length 1; the builtins shipped in run form get a second axis that
// keeps the row path and changes only the run length (perCell), and must
// take fewer calls than cells as shipped. Every run delivers one edge
// per tile dependence whose producer exists, empty ones included: knap
// also runs at W = 1, 2 and 4, and at W <= 2 its (0,2) and (1,2) edges
// carry no element.
func TestFastPathEquivalence(t *testing.T) {
	runForm := map[string]bool{"lcs2": true, "bandit2": true, "knap": true}
	for _, in := range equivalenceInstances() {
		name := in.problem
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			p, err := problems.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			tl, err := tiling.New(p.Spec)
			if err != nil {
				t.Fatal(err)
			}
			params := p.DefaultParams
			if in.params != nil {
				params = in.params
			}
			serial := p.Serial(params)
			edges := dagEdges(tl, params)
			checkEdges := func(label string, res *engine.Result) {
				t.Helper()
				var got int64
				for _, st := range res.Stats {
					got += st.EdgesLocal + st.EdgesSentRemote
				}
				if got != edges {
					t.Fatalf("%s: %d edges delivered, the tile graph has %d", label, got, edges)
				}
			}
			for _, nodes := range []int{1, 4} {
				for _, threads := range []int{1, 4} {
					cfg := engine.Config{Nodes: nodes, Threads: threads}
					label := fmt.Sprintf("nodes=%d threads=%d", nodes, threads)
					var calls atomic.Int64
					fast, err := engine.Run(tl, func(c *engine.Ctx) { calls.Add(1); p.Kernel(c) }, params, cfg)
					if err != nil {
						t.Fatalf("%s: fast: %v", label, err)
					}
					checkEdges(label+" fast", fast)
					if runForm[name] {
						cell, err := engine.Run(tl, perCell(p.Kernel), params, cfg)
						if err != nil {
							t.Fatalf("%s: perCell: %v", label, err)
						}
						if fast.Value != cell.Value || fast.Max != cell.Max {
							t.Fatalf("%s: run form Value %.17g Max %.17g != one cell per call %.17g %.17g",
								label, fast.Value, fast.Max, cell.Value, cell.Max)
						}
						var cells int64
						for i := range fast.Stats {
							cells += fast.Stats[i].CellsComputed
							if fast.Stats[i].CellsComputed != cell.Stats[i].CellsComputed {
								t.Fatalf("%s: node %d CellsComputed run form %d != one cell per call %d",
									label, i, fast.Stats[i].CellsComputed, cell.Stats[i].CellsComputed)
							}
						}
						if calls.Load() >= cells {
							t.Fatalf("%s: %d kernel calls for %d cells: the run form took no runs", label, calls.Load(), cells)
						}
					}
					slowCfg := cfg
					slowCfg.DisableFastPath = true
					slow, err := engine.Run(tl, p.Kernel, params, slowCfg)
					if err != nil {
						t.Fatalf("%s: slow: %v", label, err)
					}
					checkEdges(label+" slow", slow)
					if fast.Value != slow.Value {
						t.Fatalf("%s: Value fast %.17g != slow %.17g", label, fast.Value, slow.Value)
					}
					if fast.Max != slow.Max && !(math.IsNaN(fast.Max) && math.IsNaN(slow.Max)) {
						t.Fatalf("%s: Max fast %.17g != slow %.17g", label, fast.Max, slow.Max)
					}
					for i := range fast.Stats {
						if fast.Stats[i].CellsComputed != slow.Stats[i].CellsComputed {
							t.Fatalf("%s: node %d CellsComputed fast %d != slow %d",
								label, i, fast.Stats[i].CellsComputed, slow.Stats[i].CellsComputed)
						}
					}
					got := fast.Value
					if p.UseMax {
						got = fast.Max
					}
					if got != serial {
						t.Fatalf("%s: engine %.17g != serial reference %.17g", label, got, serial)
					}
				}
			}
		})
	}
}
