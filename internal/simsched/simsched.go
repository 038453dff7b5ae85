// Package simsched is a deterministic discrete-event simulator of the
// generated hybrid programs. It replays the exact tile DAG, ownership
// map, priority policy and communication pattern that the real runtime
// (dpgen/internal/engine) executes, against a calibrated cost model of
// cores, NICs and links — substituting for the paper's 8-node, 24-core
// testbed, which this reproduction does not have.
//
// The simulator is what regenerates the scaling figures (Figures 6 and 7)
// and the tile-size and buffer-count sweeps of Section VI-C: those
// results are properties of the DAG shape, the static load balance, the
// pipeline structure and the compute/communication ratio, all of which
// are preserved here; only the absolute constants are the model's.
package simsched

import (
	"container/heap"
	"fmt"
	"slices"
	"strconv"

	"dpgen/internal/balance"
	"dpgen/internal/obs"
	"dpgen/internal/sched"
	"dpgen/internal/tiling"
)

// CostModel holds the simulated machine constants, in seconds.
type CostModel struct {
	// CellTime is the compute time per iteration-space cell.
	CellTime float64
	// TileOverhead is the per-tile scheduling/allocation cost.
	TileOverhead float64
	// ElemCPU is the per-element pack/unpack CPU cost (charged on both
	// the producing and consuming core).
	ElemCPU float64
	// ElemWire is the per-element wire time (inverse bandwidth).
	ElemWire float64
	// MsgLatency is the per-message latency between nodes.
	MsgLatency float64
	// CoreContention models shared memory-bandwidth pressure: the
	// effective per-cell (and per-element CPU) time is multiplied by
	// 1 + CoreContention*(Cores-1). Dynamic programming cells are
	// memory-bound, so a fully loaded 24-core node runs each core
	// slightly slower than a lone core — the effect that keeps the
	// paper's 24-core speedups near 22 rather than 24.
	CoreContention float64
}

// DefaultCostModel returns constants representative of the paper's era
// (2011 cluster: ~GHz cores, DDR InfiniBand-class interconnect).
func DefaultCostModel() CostModel {
	return CostModel{
		CellTime:       40e-9,
		TileOverhead:   5e-6,
		ElemCPU:        2e-9,
		ElemWire:       5e-9,
		MsgLatency:     20e-6,
		CoreContention: 0.003,
	}
}

// Config selects the simulated machine and runtime policies.
type Config struct {
	Nodes    int // MPI ranks (default 1)
	Cores    int // cores per node (default 1)
	SendBufs int // in-flight sends per node before the sender stalls (default 16)
	Priority sched.Priority
	Balance  balance.Method
	Cost     CostModel // zero value means DefaultCostModel
	// ReverseKey flips the column-major key orientation to prefer the
	// least-advanced tiles — the naive reading of "column-major" that
	// starves the cross-node pipeline. Exists to demonstrate the
	// priority-orientation finding (see EXPERIMENTS.md fig7).
	ReverseKey bool
	// Tracer, if non-nil, records the simulated tile lifecycle in the
	// same event schema the real runtime emits (see dpgen/internal/obs),
	// with simulated seconds mapped to trace nanoseconds from t=0. A
	// real run and its model can then be diffed timeline to timeline.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.Cores == 0 {
		c.Cores = 1
	}
	if c.SendBufs == 0 {
		c.SendBufs = 16
	}
	if c.Cost == (CostModel{}) {
		c.Cost = DefaultCostModel()
	}
	return c
}

// Result summarizes a simulated run.
type Result struct {
	// Makespan is the simulated completion time in seconds.
	Makespan float64
	// SerialWork is the sum of all tile costs: the one-core, zero-
	// communication lower bound used for speedup calculations.
	SerialWork float64
	// BusyTime is total core-busy seconds per node.
	BusyTime []float64
	// IdleFrac is the idle fraction per node over the makespan.
	IdleFrac []float64
	// PeakPendingEdges is the per-node maximum number of buffered edges.
	PeakPendingEdges []int64
	// Messages and Elems count remote edge traffic.
	Messages, Elems int64
	// TotalCells is the iteration-space size.
	TotalCells int64
	// TilesExecuted counts tiles (all of them, across nodes).
	TilesExecuted int64
}

// Speedup returns SerialWork / Makespan.
func (r *Result) Speedup() float64 { return r.SerialWork / r.Makespan }

// simTile is a tile in the simulator: the shared scheduler's item (so
// the per-node ready set is the shared priority heap) around the
// simulator's own state.
type simTile = sched.Item[simState]

type simState struct {
	tile    []int64
	inElems int64   // received edge elements (unpack cost)
	out     []int64 // per tile dependence, the elements it packs (tileCost)

	// Tracing state (only maintained when a Tracer is attached).
	core  int   // simulated core the tile ran on
	cells int64 // cell count, recorded by tileCost
}

// event is a point in simulated time.
type event struct {
	at   float64
	seq  int64
	kind int // 0 = tile finish, 1 = message arrival, 2 = blocked core freed
	node int
	tile *simTile // finish: the finished tile
	to   []int64  // arrival: the consumer tile
	dep  int      // arrival: tile dependence index
	data int64    // arrival: element count
	core int      // blocked-core-freed: which core (tracing only)
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(a, b int) bool {
	if h[a].at != h[b].at {
		return h[a].at < h[b].at
	}
	return h[a].seq < h[b].seq
}
func (h eventHeap) Swap(a, b int)     { h[a], h[b] = h[b], h[a] }
func (h *eventHeap) Push(v any)       { *h = append(*h, v.(*event)) }
func (h *eventHeap) Pop() any         { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *eventHeap) push(e *event)    { heap.Push(h, e) }
func (h *eventHeap) popEvent() *event { return heap.Pop(h).(*event) }
func (h *eventHeap) empty() bool      { return h.Len() == 0 }

// simNode is the per-node simulator state.
type simNode struct {
	ready     sched.Heap[simState]
	table     *sched.Table[simState] // pending tiles, the engine's layout
	freeCores int
	busy      float64
	seq       int64

	// NIC model: sends serialize on the wire; SendBufs slots gate how
	// far the cores can run ahead of the wire.
	nicFree   float64
	slotTimes []float64
	nextSlot  int

	pendingEdges int64
	peakEdges    int64
	executed     int64
	owned        int64

	// Tracing state (nil / unused without a Tracer). Lane numbering
	// mirrors the engine: cores 0..Cores-1, receiver at Cores, init at
	// Cores+1. The simulator is single-threaded, so the single-writer
	// lane contract holds trivially.
	coreLanes   []*obs.Lane
	recvLane    *obs.Lane
	initLane    *obs.Lane
	freeCoreIDs []int
}

type sim struct {
	tl     *tiling.Tiling
	params []int64
	cfg    Config
	assign *balance.Assignment
	rows   *tiling.RowPlan
	probe  *tiling.TileProbe
	shapes *tiling.ShapeReader // nil when the row plan cannot be walked
	box    int64               // an interior tile's cells
	nb     []int64             // tileCost's consumer scratch
	nodes  []*simNode
	events eventHeap
	eseq   int64
	now    float64
	res    Result
}

// Simulate runs the model to completion. It builds the engine's set-up
// (engine.Prepare: the bound row plan, the balance whose one pass over
// the tiles counts ownership, finds the initial tiles and fills the
// plan's shape table, and the pending table's layout) and reads every
// tile's cells and edges from it.
func Simulate(tl *tiling.Tiling, params []int64, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	rows := tl.BindRows(params)
	assign, err := balance.BuildMembers(tl, params, cfg.Nodes, nil, cfg.Balance, rows)
	if err != nil {
		return nil, err
	}
	layout, err := balance.NewLayout(tl, params, assign)
	if err != nil {
		return nil, fmt.Errorf("simsched: %w", err)
	}
	s := &sim{tl: tl, params: params, cfg: cfg, assign: assign, rows: rows,
		probe: rows.NewProbe(), shapes: rows.NewReader(), box: 1, nb: make([]int64, len(tl.Widths))}
	for _, w := range tl.Widths {
		s.box *= w
	}
	s.nodes = make([]*simNode, cfg.Nodes)
	for i := range s.nodes {
		n := &simNode{
			ready:     sched.Heap[simState]{Prio: cfg.Priority},
			table:     sched.NewTable[simState](layout.Slab, layout.Rest, layout.Expect, tl.DepOffsets()),
			freeCores: cfg.Cores,
			slotTimes: make([]float64, cfg.SendBufs),
			owned:     assign.Tiles[i],
		}
		if cfg.Tracer != nil {
			n.coreLanes = make([]*obs.Lane, cfg.Cores)
			n.freeCoreIDs = make([]int, cfg.Cores)
			for c := 0; c < cfg.Cores; c++ {
				n.coreLanes[c] = cfg.Tracer.Lane(i, c, "core"+strconv.Itoa(c))
				n.freeCoreIDs[c] = cfg.Cores - 1 - c // pop core 0 first
			}
			n.recvLane = cfg.Tracer.Lane(i, cfg.Cores, "recv")
			n.initLane = cfg.Tracer.Lane(i, cfg.Cores+1, "init")
		}
		s.nodes[i] = n
	}

	// The initial tiles, in loop order as the balance's pass found them.
	for _, t := range assign.Initial {
		n := s.nodes[assign.Owner(t)]
		n.makeReady(s.newSimTile(t, 0))
		if n.initLane != nil {
			n.initLane.Emit(obs.Event{Kind: obs.KReady, Tile: obs.TileID(t), Dep: -1})
		}
	}

	// Start as many tiles as there are free cores.
	for id := range s.nodes {
		s.dispatch(id)
	}
	if s.events.empty() {
		return nil, fmt.Errorf("simsched: nothing to execute for params %v", params)
	}

	for !s.events.empty() {
		e := s.events.popEvent()
		s.now = e.at
		switch e.kind {
		case 0:
			s.finishTile(e)
		case 1:
			s.arrive(e)
		case 2: // a core blocked in Send becomes free
			n := s.nodes[e.node]
			n.freeCores++
			if n.coreLanes != nil {
				n.freeCoreIDs = append(n.freeCoreIDs, e.core)
			}
			s.dispatch(e.node)
		}
	}

	var total int64
	for id, n := range s.nodes {
		if n.executed != n.owned {
			return nil, fmt.Errorf("simsched: node %d executed %d of %d tiles (deadlocked DAG?)", id, n.executed, n.owned)
		}
		total += n.executed
	}
	s.res.TilesExecuted = total
	s.res.Makespan = s.now
	s.res.BusyTime = make([]float64, cfg.Nodes)
	s.res.IdleFrac = make([]float64, cfg.Nodes)
	s.res.PeakPendingEdges = make([]int64, cfg.Nodes)
	for i, n := range s.nodes {
		s.res.BusyTime[i] = n.busy
		if s.now > 0 {
			s.res.IdleFrac[i] = 1 - n.busy/(float64(cfg.Cores)*s.now)
		}
		s.res.PeakPendingEdges[i] = n.peakEdges
	}
	return &s.res, nil
}

func (s *sim) newSimTile(t []int64, missing int) *simTile {
	st := &simTile{Tile: simState{tile: append([]int64(nil), t...)}}
	st.Missing.Store(int64(missing))
	st.Key = s.tl.PriorityKey(t, nil)
	if s.cfg.ReverseKey {
		for i := range st.Key {
			st.Key[i] = -st.Key[i]
		}
	}
	for _, v := range st.Key {
		st.Level -= v
	}
	return st
}

// makeReady queues a tile whose dependencies have all arrived.
func (n *simNode) makeReady(st *simTile) {
	st.Seq = n.seq
	n.seq++
	n.ready.Push(st)
}

// dispatch starts ready tiles on free cores of node id.
func (s *sim) dispatch(id int) {
	n := s.nodes[id]
	for n.freeCores > 0 && n.ready.Len() > 0 {
		st := n.ready.Pop()
		n.freeCores--
		cost := s.tileCost(st)
		n.busy += cost
		s.res.SerialWork += cost
		if n.coreLanes != nil {
			st.Tile.core = n.freeCoreIDs[len(n.freeCoreIDs)-1]
			n.freeCoreIDs = n.freeCoreIDs[:len(n.freeCoreIDs)-1]
			lane := n.coreLanes[st.Tile.core]
			tid := obs.TileID(st.Tile.tile)
			lane.Emit(obs.Event{Kind: obs.KPop, Start: ns(s.now), Tile: tid, Dep: -1})
			lane.Emit(obs.Event{Kind: obs.KKernel, Start: ns(s.now),
				Dur: ns(s.now+cost) - ns(s.now), Tile: tid, Dep: -1, Val: st.Tile.cells})
		}
		s.eseq++
		s.events.push(&event{at: s.now + cost, seq: s.eseq, kind: 0, node: id, tile: st})
	}
}

// ns maps simulated seconds to trace nanoseconds (origin t=0) — the
// unit contract of the obs event schema.
func ns(sec float64) int64 { return int64(sec * 1e9) }

// tileCost models one tile's core time: overhead + cells + pack/unpack.
// It records the tile's cell count and the size of each edge it packs.
func (s *sim) tileCost(st *simTile) float64 {
	t := st.Tile.tile
	interior := s.probe.Interior(t)
	var cells int64
	switch {
	case interior:
		cells = s.box
	case s.shapes != nil:
		cells = s.shapes.Cells(t, false).Cells
	default:
		cells = s.tl.CellCount(s.params, t)
	}
	st.Tile.cells = cells
	s.res.TotalCells += cells
	st.Tile.out = make([]int64, len(s.tl.TileDeps))
	var outElems int64
	for j := range s.tl.TileDeps {
		if !s.consumer(s.nb, t, j) {
			continue
		}
		switch {
		case interior:
			st.Tile.out[j] = s.rows.InteriorEdgeSize(j)
		case s.shapes != nil:
			st.Tile.out[j] = s.shapes.EdgeCells(j, t)
		default:
			st.Tile.out[j] = s.tl.EdgeSize(s.params, t, j)
		}
		outElems += st.Tile.out[j]
	}
	c := s.cfg.Cost
	contention := 1 + c.CoreContention*float64(s.cfg.Cores-1)
	return c.TileOverhead + float64(cells)*c.CellTime*contention +
		float64(st.Tile.inElems+outElems)*c.ElemCPU*contention
}

// consumer writes into dst the tile that consumes what tile t packs for
// tile dependence dep, and reports whether it exists.
func (s *sim) consumer(dst, t []int64, dep int) bool {
	for k, off := range s.tl.TileDeps[dep].Offset {
		dst[k] = t[k] - off
	}
	return s.probe.InSpace(dst)
}

// finishTile delivers the finished tile's edges and frees its core.
func (s *sim) finishTile(e *event) {
	n := s.nodes[e.node]
	st := e.tile
	n.executed++
	var lane *obs.Lane
	var tid string
	if n.coreLanes != nil {
		lane = n.coreLanes[st.Tile.core]
		tid = obs.TileID(st.Tile.tile)
	}
	coreTime := s.now
	probe := make([]int64, len(st.Tile.tile)) // deliver may dispatch, and tileCost use s.nb
	for j := range s.tl.TileDeps {
		if !s.consumer(probe, st.Tile.tile, j) {
			continue
		}
		elems := st.Tile.out[j]
		owner := s.assign.Owner(probe)
		if owner == e.node {
			s.deliver(owner, probe, j, elems, s.now)
			continue
		}
		// Remote: wait for a send-buffer slot if necessary (this is the
		// Section VI-C buffer effect), serialize on the NIC, add latency.
		// A slot is held until the receiver consumes the message — the
		// MPI buffered-send semantics the generated programs rely on —
		// so with too few buffers a send degenerates to a rendezvous.
		c := s.cfg.Cost
		slotFree := n.slotTimes[n.nextSlot]
		if slotFree > coreTime {
			if lane != nil {
				lane.Emit(obs.Event{Kind: obs.KStall, Start: ns(coreTime),
					Dur: ns(slotFree) - ns(coreTime), Tile: tid, Dep: int32(j)})
			}
			coreTime = slotFree // the core blocks in Send
		}
		start := coreTime
		if n.nicFree > start {
			start = n.nicFree
		}
		wireDone := start + float64(elems)*c.ElemWire
		n.slotTimes[n.nextSlot] = wireDone + c.MsgLatency // freed at delivery
		n.nextSlot = (n.nextSlot + 1) % len(n.slotTimes)
		n.nicFree = wireDone
		s.res.Messages++
		s.res.Elems += elems
		if lane != nil {
			lane.Emit(obs.Event{Kind: obs.KSend, Start: ns(start),
				Dur: ns(wireDone) - ns(start), Tile: obs.TileID(probe), Dep: int32(j), Val: elems})
		}
		s.eseq++
		s.events.push(&event{
			at: wireDone + c.MsgLatency, seq: s.eseq, kind: 1,
			node: owner, to: slices.Clone(probe), dep: j, data: elems,
		})
	}
	if lane != nil {
		// The send phase on the core, enclosing its stalls as the
		// engine's pack span does; then the pending-edge curve at tile
		// completion, mirroring the engine's KPending series.
		lane.Emit(obs.Event{Kind: obs.KPack, Start: ns(s.now), Dur: ns(coreTime) - ns(s.now), Tile: tid, Dep: -1})
		lane.Emit(obs.Event{Kind: obs.KPending, Start: ns(s.now), Dep: -1, Val: n.pendingEdges})
	}
	if coreTime > s.now {
		// The core was additionally occupied while blocked in Send
		// (all send buffers in flight); release it when the slot frees.
		n.busy += coreTime - s.now
		s.eseq++
		s.events.push(&event{at: coreTime, seq: s.eseq, kind: 2, node: e.node, core: st.Tile.core})
		return
	}
	n.freeCores++
	if n.coreLanes != nil {
		n.freeCoreIDs = append(n.freeCoreIDs, st.Tile.core)
	}
	s.dispatch(e.node)
}

// arrive processes a remote edge arrival at its consumer node.
func (s *sim) arrive(e *event) {
	if n := s.nodes[e.node]; n.recvLane != nil {
		n.recvLane.Emit(obs.Event{Kind: obs.KRecv, Start: ns(s.now),
			Tile: obs.TileID(e.to), Dep: int32(e.dep), Val: e.data})
	}
	s.deliver(e.node, e.to, e.dep, e.data, s.now)
	s.dispatch(e.node)
}

// deliver records an edge for a consumer tile in the node's pending
// table and readies the tile when all dependencies have arrived.
func (s *sim) deliver(id int, consumer []int64, dep int, elems int64, at float64) {
	n := s.nodes[id]
	pg, slot := n.table.Lookup(n.table.Keys(consumer))
	st := slot.Load()
	if st == nil {
		st = s.newSimTile(consumer, s.probe.DepCount(consumer))
		slot.Store(st)
	}
	st.Tile.inElems += elems
	n.pendingEdges++
	if n.pendingEdges > n.peakEdges {
		n.peakEdges = n.pendingEdges
	}
	if n.table.Arrive(pg, slot, st) {
		// Its buffered edges are consumed when execution starts; account
		// them as released at dispatch. Simplification: release now.
		n.pendingEdges -= int64(s.probe.DepCount(st.Tile.tile))
		n.makeReady(st)
		if n.recvLane != nil {
			n.recvLane.Emit(obs.Event{Kind: obs.KReady, Start: ns(at), Tile: obs.TileID(st.Tile.tile), Dep: -1})
		}
		s.dispatch(id)
	}
}
