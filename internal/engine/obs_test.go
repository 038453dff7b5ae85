package engine

import (
	"bytes"
	"fmt"
	"testing"

	"dpgen/internal/obs"
)

// TestTraceEventInvariants checks, across all three priority policies,
// that the traced tile lifecycle matches the aggregate counters: one
// kernel event per executed (CellsComputed-bearing) tile, one pop and
// one ready per tile, sends equal receives, and the traced cell total
// equals CellsComputed.
func TestTraceEventInvariants(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	N := int64(14)
	for _, prio := range []Priority{ColumnMajor, LevelSet, FIFO} {
		name := fmt.Sprint(prio)
		tracer := obs.NewTracer()
		res, err := Run(tl, bandit2Kernel, []int64{N}, Config{
			Nodes: 2, Threads: 2, Priority: prio, Tracer: tracer,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr := tracer.Snapshot()
		if tr.Dropped() != 0 {
			t.Fatalf("%s: %d events dropped; invariants need a complete trace", name, tr.Dropped())
		}
		counts := map[obs.Kind]int64{}
		var tracedCells, sentElems int64
		for _, e := range tr.Events {
			counts[e.Kind]++
			if e.Kind == obs.KKernel {
				tracedCells += e.Val
			}
			if e.Kind == obs.KSend {
				sentElems += e.Val
			}
		}
		var tiles, cells, sent, recv int64
		for _, st := range res.Stats {
			tiles += st.TilesExecuted
			cells += st.CellsComputed
			sent += st.EdgesSentRemote
			recv += st.EdgesRecvRemote
		}
		if counts[obs.KKernel] != tiles {
			t.Errorf("%s: %d kernel events, %d tiles executed", name, counts[obs.KKernel], tiles)
		}
		if counts[obs.KPop] != tiles || counts[obs.KReady] != tiles {
			t.Errorf("%s: pop %d / ready %d events, want %d each",
				name, counts[obs.KPop], counts[obs.KReady], tiles)
		}
		if counts[obs.KUnpack] != tiles || counts[obs.KPack] != tiles {
			t.Errorf("%s: unpack %d / pack %d events, want %d each",
				name, counts[obs.KUnpack], counts[obs.KPack], tiles)
		}
		if tracedCells != cells {
			t.Errorf("%s: traced cells %d != CellsComputed %d", name, tracedCells, cells)
		}
		if counts[obs.KSend] != sent || counts[obs.KRecv] != recv {
			t.Errorf("%s: send %d / recv %d events, stats say %d / %d",
				name, counts[obs.KSend], counts[obs.KRecv], sent, recv)
		}
		if sentElems != res.Elems {
			t.Errorf("%s: traced sent elems %d != comm elems %d", name, sentElems, res.Elems)
		}
		if counts[obs.KPending] != tiles {
			t.Errorf("%s: %d pending samples, want one per tile (%d)", name, counts[obs.KPending], tiles)
		}
	}
}

// TestCriticalPathWithinMakespan: the replayed compute+communication
// chain must never exceed the traced makespan, on every policy.
func TestCriticalPathWithinMakespan(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	offsets := make([][]int64, len(tl.TileDeps))
	for j := range tl.TileDeps {
		offsets[j] = tl.TileDeps[j].Offset
	}
	N := int64(14)
	for _, prio := range []Priority{ColumnMajor, LevelSet, FIFO} {
		tracer := obs.NewTracer()
		if _, err := Run(tl, bandit2Kernel, []int64{N}, Config{
			Nodes: 3, Threads: 2, Priority: prio, Tracer: tracer,
		}); err != nil {
			t.Fatal(err)
		}
		tr := tracer.Snapshot()
		rep, err := obs.CriticalPath(tr, offsets)
		if err != nil {
			t.Fatal(err)
		}
		if rep.CriticalPath <= 0 {
			t.Errorf("%v: nonpositive critical path %v", prio, rep.CriticalPath)
		}
		if rep.CriticalPath > rep.Makespan {
			t.Errorf("%v: critical path %v exceeds makespan %v", prio, rep.CriticalPath, rep.Makespan)
		}
		if rep.Tiles != int(tl.TileCount([]int64{N})) {
			t.Errorf("%v: analyzer saw %d tiles, want %d", prio, rep.Tiles, tl.TileCount([]int64{N}))
		}
		if rep.ChainTiles < 1 || rep.ChainTiles > rep.Tiles {
			t.Errorf("chain tiles %d out of range", rep.ChainTiles)
		}
	}
}

// TestTraceSendStallConsistency: the traced stall spans must sum to
// (approximately, and never above) NodeStats.SendStallTime.
func TestTraceSendStallConsistency(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1"})
	tracer := obs.NewTracer()
	// 1-deep buffers on a chatty decomposition force real stalls.
	res, err := Run(tl, bandit2Kernel, []int64{16}, Config{
		Nodes: 4, Threads: 2, SendBufs: 1, RecvBufs: 1, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	var statStall int64
	for _, st := range res.Stats {
		statStall += int64(st.SendStallTime)
	}
	var traceStall int64
	for _, e := range tracer.Snapshot().Events {
		if e.Kind == obs.KStall {
			traceStall += e.Dur
		}
	}
	if traceStall > statStall {
		t.Errorf("traced stall %d ns exceeds stats stall %d ns", traceStall, statStall)
	}
	// Every stall above the emission threshold is traced, so the two
	// must agree exactly here.
	if traceStall != statStall {
		t.Errorf("traced stall %d ns != stats stall %d ns", traceStall, statStall)
	}
}

// TestChromeExportFromEngine: a real run's trace serializes to valid
// Chrome trace JSON and survives the shared decoder.
func TestChromeExportFromEngine(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1"})
	tracer := obs.NewTracer()
	if _, err := Run(tl, bandit2Kernel, []int64{12}, Config{Nodes: 2, Threads: 2, Tracer: tracer}); err != nil {
		t.Fatal(err)
	}
	tr := tracer.Snapshot()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ParseChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(tr.Events) {
		t.Errorf("decoded %d events, wrote %d", len(back.Events), len(tr.Events))
	}
	// One lane per (node, worker/receiver) plus the init lanes.
	if len(back.Lanes) != len(tr.Lanes) {
		t.Errorf("decoded %d lanes, wrote %d", len(back.Lanes), len(tr.Lanes))
	}
}
