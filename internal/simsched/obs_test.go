package simsched

import (
	"bytes"
	"slices"
	"testing"

	"dpgen/internal/engine"
	"dpgen/internal/obs"
)

// obsKernel is the two-armed bandit recurrence, duplicated from the
// engine tests so a real run and a simulated run of the same problem
// can be traced side by side.
func obsKernel(c *engine.Ctx) {
	if !c.DepValid[0] {
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

// TestSimTraceInvariants checks the simulated trace against the
// simulator's own aggregate result: one pop/kernel/ready triple per
// tile, one recv per remote message, traced elements matching Elems,
// and traced cells matching TotalCells.
func TestSimTraceInvariants(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	N := []int64{20}
	tracer := obs.NewTracer()
	res, err := Simulate(tl, N, Config{Nodes: 3, Cores: 2, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	tr := tracer.Snapshot()
	if tr.Dropped() != 0 {
		t.Fatalf("%d events dropped", tr.Dropped())
	}
	counts := map[obs.Kind]int64{}
	var cells, sentElems, recvElems int64
	for _, e := range tr.Events {
		counts[e.Kind]++
		switch e.Kind {
		case obs.KKernel:
			cells += e.Val
		case obs.KSend:
			sentElems += e.Val
		case obs.KRecv:
			recvElems += e.Val
		}
	}
	if counts[obs.KKernel] != res.TilesExecuted || counts[obs.KPop] != res.TilesExecuted {
		t.Errorf("kernel %d / pop %d events, %d tiles executed",
			counts[obs.KKernel], counts[obs.KPop], res.TilesExecuted)
	}
	if counts[obs.KReady] != res.TilesExecuted {
		t.Errorf("ready %d events, want %d", counts[obs.KReady], res.TilesExecuted)
	}
	if counts[obs.KPending] != res.TilesExecuted {
		t.Errorf("pending samples %d, want one per tile (%d)", counts[obs.KPending], res.TilesExecuted)
	}
	if cells != res.TotalCells {
		t.Errorf("traced cells %d != TotalCells %d", cells, res.TotalCells)
	}
	if counts[obs.KSend] != res.Messages || counts[obs.KRecv] != res.Messages {
		t.Errorf("send %d / recv %d events, %d messages", counts[obs.KSend], counts[obs.KRecv], res.Messages)
	}
	if sentElems != res.Elems || recvElems != res.Elems {
		t.Errorf("traced elems sent %d / recv %d, want %d", sentElems, recvElems, res.Elems)
	}
	// The trace's timeline must close exactly at the simulated makespan.
	if got, want := tr.Makespan().Seconds(), res.Makespan; got > want*1.0001 {
		t.Errorf("trace makespan %v exceeds simulated makespan %v", got, want)
	}
}

// TestSimCriticalPathWithinMakespan: the replay guarantee holds on
// simulated traces too.
func TestSimCriticalPathWithinMakespan(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	offsets := make([][]int64, len(tl.TileDeps))
	for j := range tl.TileDeps {
		offsets[j] = tl.TileDeps[j].Offset
	}
	for _, nodes := range []int{1, 4} {
		tracer := obs.NewTracer()
		if _, err := Simulate(tl, []int64{20}, Config{Nodes: nodes, Cores: 3, Tracer: tracer}); err != nil {
			t.Fatal(err)
		}
		rep, err := obs.CriticalPath(tracer.Snapshot(), offsets)
		if err != nil {
			t.Fatal(err)
		}
		if rep.CriticalPath <= 0 || rep.CriticalPath > rep.Makespan {
			t.Errorf("nodes=%d: critical path %v vs makespan %v", nodes, rep.CriticalPath, rep.Makespan)
		}
		if nodes == 1 && rep.Comm != 0 {
			t.Errorf("single node reported %v of communication on the critical path", rep.Comm)
		}
		if nodes > 1 && rep.Comm <= 0 {
			t.Errorf("multi-node critical path has no communication component: %v", rep)
		}
	}
}

// TestUnifiedSchemaRealAndSimulated is the schema contract: a real
// engine run and a simulated run of the same problem both export
// Chrome trace JSON that one decoder parses, and both support the same
// downstream analyses (event counting, critical path, run report). Both
// nest spans alike: one pack span per tile, enclosing every stall on
// its lane, which is what the report's busy rule relies on.
func TestUnifiedSchemaRealAndSimulated(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	N := []int64{14}
	offsets := make([][]int64, len(tl.TileDeps))
	for j := range tl.TileDeps {
		offsets[j] = tl.TileDeps[j].Offset
	}
	wantTiles := tl.TileCount(N)

	// One send buffer per node makes sends stall, so the nesting check
	// has stalls to place.
	engTracer := obs.NewTracer()
	if _, err := engine.Run(tl, obsKernel, N, engine.Config{Nodes: 2, Threads: 2, SendBufs: 1, Tracer: engTracer}); err != nil {
		t.Fatal(err)
	}
	simTracer := obs.NewTracer()
	if _, err := Simulate(tl, N, Config{Nodes: 2, Cores: 2, SendBufs: 1, Tracer: simTracer}); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		tr   *obs.Trace
	}{
		{"engine", engTracer.Snapshot()},
		{"simsched", simTracer.Snapshot()},
	} {
		checkPackNesting(t, tc.name, tc.tr, wantTiles)
		if _, err := obs.BuildReport(tc.tr, offsets, 0); err != nil {
			t.Errorf("%s: report: %v", tc.name, err)
		}
		var buf bytes.Buffer
		if err := tc.tr.WriteChrome(&buf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		back, err := obs.ParseChrome(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		var kernels int64
		for _, e := range back.Events {
			if e.Kind == obs.KKernel {
				kernels++
			}
		}
		if kernels != wantTiles {
			t.Errorf("%s: decoded %d kernel events, want %d", tc.name, kernels, wantTiles)
		}
		rep, err := obs.CriticalPath(back, offsets)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Tiles != int(wantTiles) {
			t.Errorf("%s: analyzer saw %d tiles, want %d", tc.name, rep.Tiles, wantTiles)
		}
		if rep.CriticalPath <= 0 || rep.CriticalPath > rep.Makespan {
			t.Errorf("%s: critical path %v vs makespan %v", tc.name, rep.CriticalPath, rep.Makespan)
		}
	}
}

// checkPackNesting checks that tr has one KPack per tile and that every
// KStall lies inside a KPack on its lane.
func checkPackNesting(t *testing.T, name string, tr *obs.Trace, tiles int64) {
	t.Helper()
	type lane struct{ node, lane int32 }
	packs := map[lane][]obs.Event{}
	perTile := map[string]int{}
	for _, e := range tr.Events {
		if e.Kind == obs.KPack {
			packs[lane{e.Node, e.Lane}] = append(packs[lane{e.Node, e.Lane}], e)
			perTile[e.Tile]++
		}
	}
	if int64(len(perTile)) != tiles {
		t.Errorf("%s: %d tiles have a pack span, want %d", name, len(perTile), tiles)
	}
	for id, n := range perTile {
		if n != 1 {
			t.Errorf("%s: tile %q has %d pack spans, want 1", name, id, n)
		}
	}
	var stalls int
	for _, e := range tr.Events {
		if e.Kind != obs.KStall {
			continue
		}
		stalls++
		if !slices.ContainsFunc(packs[lane{e.Node, e.Lane}], func(p obs.Event) bool {
			return p.Start <= e.Start && e.End() <= p.End()
		}) {
			t.Errorf("%s: stall %+v lies in no pack span of its lane", name, e)
		}
	}
	t.Logf("%s: %d pack spans, %d stalls nested", name, len(perTile), stalls)
}
