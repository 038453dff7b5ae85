package dpgen

import (
	"fmt"
	"math"
	"testing"

	"dpgen/internal/engine"
	"dpgen/internal/problems"
	"dpgen/internal/tiling"
)

// TestFastPathEquivalence is the bit-for-bit contract of the interior
// fast path: for every builtin problem and every runtime configuration,
// the fast path and the forced-slow path (DisableFastPath) must produce
// identical Result.Value, identical Result.Max, and identical per-node
// CellsComputed — and the value must equal the serial reference solver
// exactly. Floating-point results are compared with ==, not a tolerance:
// the fast path reorders no arithmetic, it only skips checks that are
// statically known to pass.
func TestFastPathEquivalence(t *testing.T) {
	for _, name := range problems.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
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
			serial := p.Serial(params)
			for _, nodes := range []int{1, 4} {
				for _, threads := range []int{1, 4} {
					for _, sched := range []engine.Sched{engine.SchedHybrid, engine.SchedDynamic} {
						cfg := engine.Config{Nodes: nodes, Threads: threads, Sched: sched}
						label := fmt.Sprintf("nodes=%d threads=%d sched=%v", nodes, threads, sched)
						fast, err := engine.Run(tl, p.Kernel, params, cfg)
						if err != nil {
							t.Fatalf("%s: fast: %v", label, err)
						}
						slowCfg := cfg
						slowCfg.DisableFastPath = true
						slow, err := engine.Run(tl, p.Kernel, params, slowCfg)
						if err != nil {
							t.Fatalf("%s: slow: %v", label, err)
						}
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
							t.Fatalf("%s: hybrid %.17g != serial reference %.17g", label, got, serial)
						}
					}
				}
			}
		})
	}
}
