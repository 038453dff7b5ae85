// Critical-path analysis over a recorded trace. The analyzer replays
// the tile DAG with per-tile *measured* times and reports the longest
// dependence chain of compute plus communication — the quantity that
// bounds any schedule of the same DAG from below and therefore explains
// the speedup ceilings of Figures 6 and 7: when measured makespan is
// close to the critical path, no scheduling or buffering change can
// help; only smaller tiles (a deeper DAG cut) can.
//
// The per-tile weight is the measured span from unpack start to kernel
// end, and the weight of a remote dependence edge is the measured gap
// from the producer's kernel end to the edge's arrival at the consumer
// (which includes the producer's pack, the send, the wire and any
// buffering delay). With these definitions every chain occupies
// disjoint, ordered intervals of the recorded timeline — a consumer
// never starts unpacking before its last edge arrives, and an edge
// never arrives before its producer's kernel ends — so the reported
// critical path is guaranteed to be at most the measured makespan.
// Local delivery gaps are folded into the consumer's wait and counted
// as zero.
//
// On a merged cross-rank trace the two timelines come from different
// clocks, aligned only to within half the min-RTT of the offset probe
// (see internal/mpi/tcp clock sync). Residual skew could order an
// arrival after the consumer's own kernel end and break the invariant
// above, so each chain extension through a dependence edge is clamped
// to the producer-to-consumer kernel-end delta: the chain through
// producer p into tile t grows by at most kernelEnd(t)-kernelEnd(p),
// and never by a negative amount. By induction every chain ending at t
// is then at most kernelEnd(t) minus the trace start, which keeps
// CriticalPath <= Makespan on skewed merged traces while reducing to
// the exact measured chain when timestamps are consistent.

package obs

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// PathReport is the result of a critical-path analysis.
type PathReport struct {
	// CriticalPath is the longest compute+communication chain.
	CriticalPath time.Duration
	// Compute and Comm split the chain into tile-execution time and
	// remote-edge delivery gaps (CriticalPath = Compute + Comm).
	Compute, Comm time.Duration
	// Makespan is the traced end-to-end run time.
	Makespan time.Duration
	// Tiles is the number of tiles observed; ChainTiles the number on
	// the critical chain.
	Tiles, ChainTiles int
	// Chain lists the tile IDs on the critical chain, source first.
	Chain []string
}

// Ratio returns CriticalPath / Makespan: how much of the run is
// explained by the longest chain (1.0 means latency-bound — no
// schedule of this DAG can run faster).
func (r *PathReport) Ratio() float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(r.CriticalPath) / float64(r.Makespan)
}

// String renders the report as the one-line summary printed by the
// dprun -critpath flag.
func (r *PathReport) String() string {
	return fmt.Sprintf("critical path %v (compute %v + comm %v) over %d/%d tiles; makespan %v (ratio %.2f)",
		r.CriticalPath, r.Compute, r.Comm, r.ChainTiles, r.Tiles, r.Makespan, r.Ratio())
}

// tileRec is one tile's entry in a trace's per-tile index. The fold
// fields are what the stragglers and the critical path read of the
// tile's lifecycle; the chain fields are the critical-path replay's.
type tileRec struct {
	id        string
	node      int32           // the rank that ran its (last) kernel
	ready     int64           // first KReady, ns
	pop       int64           // first KPop, ns
	start     int64           // earliest unpack or kernel start, ns
	kernelEnd int64           // last kernel end, ns
	seen      uint8           // seenReady | seenPop | seenStart | seenKernel
	arrivals  map[int32]int64 // latest remote arrival per dependence, ns

	cpEnd     time.Duration // longest chain ending at this tile
	cpCompute time.Duration
	pred      *tileRec // predecessor on that chain; nil for a source
}

const (
	seenReady uint8 = 1 << iota
	seenPop
	seenStart
	seenKernel
)

// tileIndex is the per-tile fold of a trace, keyed by tile id: one pass
// over its events that the report's stragglers and the critical path
// share.
type tileIndex map[string]*tileRec

// indexTiles folds the tile-lifecycle events of tr by tile.
func indexTiles(tr *Trace) tileIndex {
	idx := tileIndex{}
	for i := range tr.Events {
		e := &tr.Events[i]
		if e.Tile == "" {
			continue
		}
		switch e.Kind {
		case KReady:
			t := idx.at(e.Tile)
			t.first(seenReady, &t.ready, e.Start)
		case KPop:
			t := idx.at(e.Tile)
			t.first(seenPop, &t.pop, e.Start)
		case KUnpack:
			t := idx.at(e.Tile)
			t.first(seenStart, &t.start, e.Start)
		case KKernel:
			t := idx.at(e.Tile)
			t.first(seenStart, &t.start, e.Start)
			if t.seen&seenKernel == 0 || e.End() > t.kernelEnd {
				t.kernelEnd = e.End()
			}
			t.seen |= seenKernel
			t.node = e.Node
		case KRecv:
			if e.Dep >= 0 {
				idx.at(e.Tile).arrive(e.Dep, e.Start)
			}
		}
	}
	return idx
}

// at returns tile id's entry, adding an empty one if there is none.
func (idx tileIndex) at(id string) *tileRec {
	t := idx[id]
	if t == nil {
		t = &tileRec{id: id}
		idx[id] = t
	}
	return t
}

// first keeps the earlier of *at and v, and marks bit seen.
func (t *tileRec) first(bit uint8, at *int64, v int64) {
	if t.seen&bit == 0 || v < *at {
		*at = v
	}
	t.seen |= bit
}

// arrive records a remote arrival of dependence dep at time at.
func (t *tileRec) arrive(dep int32, at int64) {
	if t.arrivals == nil {
		t.arrivals = map[int32]int64{}
	}
	if a, ok := t.arrivals[dep]; !ok || at > a {
		t.arrivals[dep] = at
	}
}

// CriticalPath analyzes a trace. offsets are the tile-space dependence
// offsets (producer = consumer + offset), as produced by the tiling
// analysis (Tiling.TileDeps[j].Offset); they are what lets the analyzer
// rebuild the DAG from tile identities alone, so it works identically
// on engine and simsched traces.
func CriticalPath(tr *Trace, offsets [][]int64) (*PathReport, error) {
	return indexTiles(tr).criticalPath(tr.Makespan(), offsets)
}

// criticalPath replays the indexed tiles' DAG.
func (idx tileIndex) criticalPath(makespan time.Duration, offsets [][]int64) (*PathReport, error) {
	report := &PathReport{Makespan: makespan}
	var order []*tileRec
	for _, t := range idx {
		if t.seen&seenKernel != 0 { // else referenced but never executed in-trace
			order = append(order, t)
		}
	}
	report.Tiles = len(order)
	if len(order) == 0 {
		return report, nil
	}
	// Execution order is a topological order of the DAG: a consumer
	// cannot start before its producers' kernels end.
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.kernelEnd != b.kernelEnd {
			return a.kernelEnd < b.kernelEnd
		}
		return a.id < b.id
	})
	var sink *tileRec
	producer := make([]int64, 0, 8)
	for _, t := range order {
		coords, err := ParseTileID(t.id)
		if err != nil {
			return nil, fmt.Errorf("obs: bad tile id %q: %w", t.id, err)
		}
		span := time.Duration(t.kernelEnd - t.start)
		t.cpEnd, t.cpCompute, t.pred = span, span, nil
		for j, off := range offsets {
			producer = producer[:0]
			for k, v := range coords {
				producer = append(producer, v+off[k])
			}
			p := idx[TileID(producer)]
			if p == nil || p.seen&seenKernel == 0 {
				continue
			}
			var gap time.Duration
			if at, ok := t.arrivals[int32(j)]; ok && at > p.kernelEnd {
				gap = time.Duration(at - p.kernelEnd)
			}
			// Clamp the extension so clock skew on merged traces can
			// never push a chain past the consumer's own kernel end.
			ext := max(0, min(gap+span, time.Duration(t.kernelEnd-p.kernelEnd)))
			if c := p.cpEnd + ext; c > t.cpEnd {
				t.cpEnd = c
				t.cpCompute = p.cpCompute + min(span, ext)
				t.pred = p
			}
		}
		if sink == nil || t.cpEnd > sink.cpEnd {
			sink = t
		}
	}
	report.CriticalPath = sink.cpEnd
	report.Compute = sink.cpCompute
	report.Comm = sink.cpEnd - sink.cpCompute
	for t := sink; t != nil; t = t.pred {
		report.Chain = append(report.Chain, t.id)
	}
	report.ChainTiles = len(report.Chain)
	slices.Reverse(report.Chain) // source first
	return report, nil
}
