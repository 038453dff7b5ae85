package simsched

import (
	"testing"

	"dpgen/internal/balance"
	"dpgen/internal/engine"
	"dpgen/internal/problems"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

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

// TestSimulateCompletesAllTiles: on every builtin at 3 nodes the
// simulator executes every tile once, and its cell and remote-element
// totals equal the checked nests' counts summed tile by tile. knap also
// runs at W = 3 on a space wide enough that interior producers send
// remote edges, which are the run's slabs: 1 element along (1,2), where
// W's bound would give 4.
func TestSimulateCompletesAllTiles(t *testing.T) {
	const nodes = 3
	type instance struct {
		name, problem string
		params        []int64
	}
	var cases []instance
	for _, name := range problems.Names() {
		cases = append(cases, instance{name, name, nil})
	}
	cases = append(cases, instance{"knap-W3-wide", "knap", []int64{40, 120, 3}})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			p, err := problems.Get(c.problem)
			if err != nil {
				t.Fatal(err)
			}
			tl, err := tiling.New(p.Spec)
			if err != nil {
				t.Fatal(err)
			}
			params := p.DefaultParams
			if c.params != nil {
				params = c.params
			}
			res, err := Simulate(tl, params, Config{Nodes: nodes, Cores: 4})
			if err != nil {
				t.Fatal(err)
			}
			assign, err := balance.Build(tl, params, nodes, balance.Prefix)
			if err != nil {
				t.Fatal(err)
			}
			var cells, elems int64
			consumer := make([]int64, len(tl.Spec.Vars))
			tl.ForEachTile(params, func(tile []int64) bool {
				cells += tl.CellCount(params, tile)
				for j, dep := range tl.TileDeps {
					for k, off := range dep.Offset {
						consumer[k] = tile[k] - off
					}
					if tl.InTileSpace(params, consumer) && assign.Owner(consumer) != assign.Owner(tile) {
						elems += tl.EdgeSize(params, tile, j)
					}
				}
				return true
			})
			if want := tl.TileCount(params); res.TilesExecuted != want {
				t.Errorf("executed %d tiles, want %d", res.TilesExecuted, want)
			}
			if res.TotalCells != cells {
				t.Errorf("cells %d, want %d", res.TotalCells, cells)
			}
			if res.Elems != elems {
				t.Errorf("remote elements %d, want %d", res.Elems, elems)
			}
			if res.Makespan <= 0 || res.SerialWork <= 0 {
				t.Errorf("times: makespan=%v serial=%v", res.Makespan, res.SerialWork)
			}
		})
	}
}

func TestSingleCoreMakespanEqualsSerialWork(t *testing.T) {
	tl := bandit2Tiling(t, 4, nil)
	res, err := Simulate(tl, []int64{16}, Config{Nodes: 1, Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.Makespan - res.SerialWork; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("1-core makespan %v != serial work %v", res.Makespan, res.SerialWork)
	}
	if res.Messages != 0 {
		t.Errorf("single node sent %d messages", res.Messages)
	}
	if res.IdleFrac[0] > 1e-9 {
		t.Errorf("single core idle frac %v", res.IdleFrac[0])
	}
}

func TestSpeedupMonotoneInCores(t *testing.T) {
	tl := bandit2Tiling(t, 5, []string{"s1", "f1"})
	N := int64(60)
	prev := 0.0
	for _, cores := range []int{1, 4, 12, 24} {
		res, err := Simulate(tl, []int64{N}, Config{Nodes: 1, Cores: cores})
		if err != nil {
			t.Fatal(err)
		}
		sp := res.Speedup()
		if sp < prev*0.999 {
			t.Errorf("speedup fell from %v to %v at %d cores", prev, sp, cores)
		}
		if sp > float64(cores) {
			t.Errorf("superlinear speedup %v on %d cores", sp, cores)
		}
		prev = sp
	}
	if prev < 6 {
		t.Errorf("24-core speedup only %.1f for N=%d; DAG or scheduler defect?", prev, N)
	}
}

func TestDeterminism(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1"})
	cfg := Config{Nodes: 3, Cores: 4}
	a, err := Simulate(tl, []int64{20}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(tl, []int64{20}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Messages != b.Messages || a.SerialWork != b.SerialWork {
		t.Errorf("nondeterministic simulation: %+v vs %+v", a, b)
	}
}

func TestWeakScalingEfficiencyReasonable(t *testing.T) {
	// Scale the problem so locations per node stay roughly constant and
	// check time-per-location-normalized efficiency stays high — the
	// Figure 7 measurement at small scale.
	tl := bandit2Tiling(t, 5, []string{"s1", "f1"})
	base, err := Simulate(tl, []int64{50}, Config{Nodes: 1, Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	// 2 nodes: N for ~2x locations: 50 * 2^(1/4) ~ 60.
	two, err := Simulate(tl, []int64{60}, Config{Nodes: 2, Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	perLoc1 := base.Makespan / float64(base.TotalCells)
	perLoc2 := two.Makespan * 2 / float64(two.TotalCells)
	eff := perLoc1 / perLoc2
	if eff < 0.5 || eff > 1.05 {
		t.Errorf("2-node weak efficiency %.2f out of plausible range", eff)
	}
}

func TestFewerSendBufsSlower(t *testing.T) {
	// With a high-communication configuration, 1 send buffer must not be
	// faster than 8 (Section VI-C).
	tl := bandit2Tiling(t, 4, []string{"s1"})
	cost := DefaultCostModel()
	cost.ElemWire = 2e-6 // strongly communication-bound
	cost.MsgLatency = 1e-3
	one, err := Simulate(tl, []int64{30}, Config{Nodes: 4, Cores: 4, SendBufs: 1, Cost: cost})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Simulate(tl, []int64{30}, Config{Nodes: 4, Cores: 4, SendBufs: 8, Cost: cost})
	if err != nil {
		t.Fatal(err)
	}
	if one.Makespan < eight.Makespan*0.999 {
		t.Errorf("1 buffer (%v) faster than 8 buffers (%v)", one.Makespan, eight.Makespan)
	}
}

func TestPriorityPoliciesComplete(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1"})
	for _, p := range []engine.Priority{engine.ColumnMajor, engine.LevelSet, engine.FIFO} {
		res, err := Simulate(tl, []int64{16}, Config{Nodes: 2, Cores: 2, Priority: p})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.TilesExecuted != tl.TileCount([]int64{16}) {
			t.Errorf("%v: executed %d tiles", p, res.TilesExecuted)
		}
	}
}

func TestBusyTimeConservation(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	cfg := Config{Nodes: 3, Cores: 4}
	res, err := Simulate(tl, []int64{24}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var busy float64
	for _, b := range res.BusyTime {
		busy += b
	}
	// Busy time is at least the serial work (plus blocked-send time) and
	// at most cores * makespan.
	if busy < res.SerialWork*0.999 {
		t.Errorf("busy %v < serial work %v", busy, res.SerialWork)
	}
	if busy > float64(cfg.Nodes*cfg.Cores)*res.Makespan*1.001 {
		t.Errorf("busy %v exceeds capacity %v", busy, float64(cfg.Nodes*cfg.Cores)*res.Makespan)
	}
}

func TestDefaultsApplied(t *testing.T) {
	tl := bandit2Tiling(t, 6, nil)
	if _, err := Simulate(tl, []int64{12}, Config{}); err != nil {
		t.Fatal(err)
	}
}

// TestReverseKeyStarvesPipeline: the naive key orientation must cost
// real time at multi-node scale (the EXPERIMENTS.md prio finding).
func TestReverseKeyStarvesPipeline(t *testing.T) {
	tl := bandit2Tiling(t, 6, []string{"s1", "f1"})
	N := int64(120)
	fwd, err := Simulate(tl, []int64{N}, Config{Nodes: 4, Cores: 24})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := Simulate(tl, []int64{N}, Config{Nodes: 4, Cores: 24, ReverseKey: true})
	if err != nil {
		t.Fatal(err)
	}
	if rev.Makespan < fwd.Makespan*1.2 {
		t.Errorf("reversed key makespan %.5f not clearly worse than %.5f", rev.Makespan, fwd.Makespan)
	}
}
