package engine

import (
	"fmt"
	"math"
	"slices"
	"time"

	"dpgen/internal/mpi"
	"dpgen/internal/obs"
	"dpgen/internal/sched"
	"dpgen/internal/tiling"
)

// worker is the per-thread main loop (Section V-A): claim a ready tile
// — own shard first, stealing otherwise — execute it, repeat. With
// nothing claimable anywhere the worker parks; the epoch read before
// the scan makes the empty-scan-then-park sequence race-free against
// concurrent enqueues (see sched.Pool.Push).
func (n *node) worker(w int, lane *obs.Lane) {
	ws := n.newWorkerState(w)
	ws.lane = lane
	track := n.live.track
	for {
		if track {
			// Claim the executing slot before the pop, so a popped tile
			// is always covered by a slot and the cut can wait for a true
			// tile boundary (see elastic.go).
			n.pauseGate()
		}
		e0 := n.pool.Epoch()
		p, stolen := n.pool.Pop(w)
		if p != nil {
			n.execTile(p, ws, stolen)
		}
		if track {
			n.execDone()
		}
		if p != nil {
			continue
		}
		idleStart := time.Now()
		slept, open := n.pool.Park(e0)
		if !open {
			return
		}
		if !slept {
			continue // an enqueue landed after the empty scan; rescan
		}
		idle := time.Since(idleStart)
		n.mu.Lock()
		n.st.IdleTime += idle
		n.mu.Unlock()
		if lane != nil {
			lane.Emit(obs.Event{Kind: obs.KIdle, Start: lane.At(idleStart), Dur: int64(idle), Dep: -1})
		}
	}
}

// receiver drains the node's MPI inbox, delivering edges into the
// pending table. It is the node's progress engine, standing in for the
// paper's lock-guarded polling step: because it never executes tiles, a
// worker blocked in Send cannot starve the node's own inbox. It exits
// when the communicator closes.
func (n *node) receiver(lane *obs.Lane) {
	defer close(n.recvExit)
	ds := newDelivState(n.prep)
	for {
		m, ok := n.rank.Recv()
		if !ok {
			return
		}
		if n.elastic && n.routeElastic(m, lane, ds) {
			continue
		}
		pk, rk := n.live.tab.Keys(m.Meta)
		n.deliver(m.Meta, pk, rk, m.Tag, m.Data, true, lane, ds)
		n.flush(ds)
		m.ReleaseSlot()
		mpi.PutMeta(m.Meta)
	}
}

// routeElastic handles the two message kinds only an elastic run sees,
// and reports whether it consumed m.
func (n *node) routeElastic(m *mpi.Message, lane *obs.Lane, ds *delivState) bool {
	switch {
	case m.Tag < 0:
		// A migration payload (see elastic.go). The slot — and with it
		// the acknowledgement — is released only after the payload is
		// fully applied, so the sender's next quiescence point proves
		// these tiles live here now.
		n.applyMigration(m.Data, lane, ds)
		mpi.PutData(m.Data)
	case m.Epoch < n.curEpoch.Load() && n.ownerOf(m.Meta) != n.id:
		// An edge sent under an older membership epoch for a tile that
		// has since moved away. The view change drained all data
		// traffic, so this cannot happen in supported configurations —
		// but if it does, the edge is forwarded to the current owner
		// instead of being dropped or double-applied (the duplicate
		// filter handles the still-owned case).
		meta := mpi.GetMeta(len(m.Meta))
		copy(meta, m.Meta)
		n.rank.Send(n.ownerOf(m.Meta), m.Tag, m.Data, meta)
		n.mu.Lock()
		n.st.EdgesForwarded++
		n.mu.Unlock()
	default:
		return false
	}
	m.ReleaseSlot()
	mpi.PutMeta(m.Meta)
	return true
}

// delivState is per-goroutine delivery scratch: a reusable polytope
// probe and a recycled pending-table entry (an executed tile's), so the
// steady-state deliver path allocates nothing — and the edge and entry
// accounting of the deliveries made since the last flush, so the node's
// shared counters are touched once per tile, not once per edge.
type delivState struct {
	probe *tiling.TileProbe
	spare *pendTile
	// Buffered edges, their elements, and how many arrived locally.
	edges, elems, local int64
	// Pending-table entries installed less those completed.
	entries int64
	w       int // owning worker, whose shard takes the tiles ds readies; -1 off the workers
}

// flush publishes ds's edge and entry accounting to the node's counters
// and samples the peaks. Between a tile's unpack and the end of its sends
// the buffered totals only rise, so sampling after the last delivery
// sees the same peak a sample per edge would.
func (n *node) flush(ds *delivState) {
	if ds.edges > 0 {
		sched.AtomicMax(&n.peakPendingEdges, n.pendingEdges.Add(ds.edges))
		sched.AtomicMax(&n.peakBufferedElems, n.bufferedElems.Add(ds.elems))
		n.edgesLocalA.Add(ds.local)
		ds.edges, ds.elems, ds.local = 0, 0, 0
	}
	sched.AtomicMax(&n.peakPendingTiles, n.live.publish(ds)+n.pool.Len())
}

func newDelivState(p *Prepared) *delivState {
	return &delivState{probe: p.rows.NewProbe(), w: -1}
}

// prepTile builds a ready-to-insert pending-table entry: the dependence
// count, priority key and level, all polytope evaluations,
// and one empty edge slot per tile dependence. The one Core probe
// settles a core tile here for good: all its producers exist, it is
// interior, and all its consumers exist. Other tiles — and every tile of
// the checked reference — take the exact per-neighbour queries.
func (n *node) prepTile(ds *delivState, consumer []int64) *pendTile {
	p := ds.spare
	if p != nil {
		ds.spare = nil
	} else {
		p = &pendTile{
			Key:  make([]int64, len(consumer)),
			Tile: tileState{coord: make([]int64, len(consumer)), edges: make([]edge, len(n.tl.TileDeps))},
		}
	}
	copy(p.Tile.coord, consumer)
	if p.Tile.core = n.rows != nil && ds.probe.Core(p.Tile.coord); p.Tile.core {
		p.Missing.Store(int64(len(n.tl.TileDeps)))
	} else {
		p.Missing.Store(int64(ds.probe.DepCount(p.Tile.coord)))
	}
	n.tl.PriorityKey(p.Tile.coord, p.Key)
	p.Level = n.tl.TileLevel(p.Tile.coord)
	return p
}

// enqueue makes a tile runnable: emit its ready event, then push it
// onto the ready pool, on ds's worker's shard. lane is the caller's trace lane.
func (n *node) enqueue(p *pendTile, lane *obs.Lane, ds *delivState) {
	if lane != nil {
		lane.Instant(obs.KReady, obs.TileID(p.Tile.coord), -1, 0)
	}
	n.pool.Push(p, ds.w)
}

// seedTile queues a tile that has no producers — an initial tile, at
// start-up or migrated in — unless the table says it is already past
// counting.
func (n *node) seedTile(t []int64, lane *obs.Lane, ds *delivState) {
	p := n.prepTile(ds, t)
	if !n.live.seed(p) {
		ds.spare = p
		return
	}
	n.enqueue(p, lane, ds)
}

// deliver records one incoming edge for a consumer tile, whose table
// keys are pk and rk, in the live table; the tile is enqueued when the
// last dependence arrives. lane is the calling goroutine's trace lane
// (nil when untraced); ds is its delivery scratch, which the caller
// flushes when its batch of deliveries ends.
func (n *node) deliver(consumer []int64, pk, rk uint64, dep int, data []float64, remote bool, lane *obs.Lane, ds *delivState) {
	if remote && lane != nil {
		lane.Instant(obs.KRecv, obs.TileID(consumer), int32(dep), int64(len(data)))
	}
	ready, dup := n.live.addEdge(ds, consumer, pk, rk, dep, data)
	if dup {
		mpi.PutData(data)
		return
	}
	ds.edges++
	ds.elems += int64(len(data))
	if remote {
		n.edgesRecvRemoteA.Add(1)
	} else {
		ds.local++
	}
	if ready != nil {
		n.enqueue(ready, lane, ds)
	}
}

// workerState is per-worker scratch: the tile buffer with its ghost
// shell, the kernel context, the shape reader (nil on the checked
// reference path), the reusable polytope probe, the free stack of edge
// buffers and the worker's slot of the node's maximum folds.
type workerState struct {
	buf      []float64
	ctx      Ctx
	specVals []int64
	x        []int64
	xbase    []int64 // global coordinates of the current tile's local origin
	tbuf     []int64 // producer/consumer tile scratch
	shapes   *tiling.ShapeReader
	probe    *tiling.TileProbe
	ds       delivState
	bufs     sched.Bufs[float64]
	max      *cellMax
	lane     *obs.Lane // trace timeline; nil when untraced
	lenRuns  int64     // offers cut by ShapeReader.LenRun, for the tests' pins
	partials int64     // edges unpacked by ShapeReader.UnpackPartial, for the tests' pins
}

// newWorkerState builds the scratch of the node's worker number slot.
func (n *node) newWorkerState(slot int) *workerState {
	d, nd := len(n.tl.Spec.Vars), len(n.tl.Spec.Deps)
	// The integer scratch is cut from one array.
	ints := make([]int64, n.tl.Spec.Space().N()+4*d+2*nd)
	cut := func(k int) []int64 {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	w := &workerState{
		max:      &n.maxes[slot],
		buf:      make([]float64, n.tl.AllocLen),
		specVals: cut(n.tl.Spec.Space().N()),
		x:        cut(d),
		xbase:    cut(d),
		tbuf:     cut(d),
		probe:    n.prep.rows.NewProbe(),
	}
	// The probe is shared with the delivery scratch: all uses are
	// call-scoped on this worker's goroutine.
	w.ds = delivState{probe: w.probe, w: slot}
	// A tile unpacks and packs at most one edge per tile dependence, so
	// twice that many buffers ride out any alternation of the two.
	w.bufs = sched.NewBufs[float64](2*len(n.tl.TileDeps), int(slices.Max(append([]int64{0}, n.tl.InteriorEdgeSize...))))
	copy(w.specVals, n.prep.params)
	in := n.tl.Dense[d-1]
	w.ctx = Ctx{
		V:      w.buf,
		DepLoc: cut(nd),
		// The range steps are constant within a run, so every worker
		// shares the prepared read-only slice.
		DepStride: n.prep.depStride,
		X:         w.x,
		I:         cut(d),
		DepValid:  make([]bool, nd),
		DepLen:    cut(nd),
		P:         n.prep.params,
		// A run advances along the innermost loop level.
		N:     1,
		Step:  int64(in.Dir) * in.Stride,
		Inner: in.Var,
		Dir:   int64(in.Dir),
	}
	if n.rows != nil {
		w.shapes = n.rows.NewReader()
	}
	return w
}

// execTile runs one tile through its phases: unpack the buffered edges,
// execute the cells, pack and send the outgoing edges, retire. stolen
// marks a tile claimed from another worker's shard (recorded on the pop
// event). A panicking user kernel still crashes the run (there is no
// safe way to unwind a half-computed distributed wavefront), but the
// panic is annotated with the tile and the run last offered — its first
// cell and length, since a run-form kernel fails somewhere inside its
// own loop over N — so the kernel bug is findable.
func (n *node) execTile(p *pendTile, w *workerState, stolen bool) {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("engine: kernel panic in tile %v on node %d (last run offered: X=%v N=%d): %v",
				p.Tile.coord, n.id, w.ctx.X, w.ctx.N, r))
		}
	}()

	// Tracing: one nil check per phase; tid and timestamps are only
	// computed when a tracer is attached.
	lane := w.lane
	var tid string
	var t0 int64
	if lane != nil {
		tid = obs.TileID(p.Tile.coord)
		var stolenVal int64
		if stolen {
			stolenVal = 1
		}
		lane.Instant(obs.KPop, tid, -1, stolenVal)
		t0 = lane.Now()
	}

	n.unpackEdges(p, w)
	if lane != nil {
		lane.Span(obs.KUnpack, tid, -1, 0, t0)
		t0 = lane.Now()
	}

	// Execute the cells in dependence order: row by row through the
	// bound row plan (an interior tile is its all-rows-full, all-valid
	// case), or cell by cell through the checked reference enumerator.
	var cells int64
	var tileMax float64
	fast := n.rows != nil
	interior := fast && (p.Tile.core || w.probe.Interior(p.Tile.coord))
	if fast {
		cells, tileMax = n.execRows(p, w, interior)
	} else {
		cells, tileMax = n.execCellsChecked(p, w)
	}
	if lane != nil {
		lane.Span(obs.KKernel, tid, -1, cells, t0)
	}
	if slices.Equal(p.Tile.coord, n.prep.goalTile) {
		n.mu.Lock()
		n.goalVal, n.goalSet = w.buf[n.tl.Loc(n.prep.goalLocal)], true
		n.mu.Unlock()
	}

	if lane != nil {
		t0 = lane.Now()
	}
	sentRemote, stall := n.sendEdges(p, w, interior, tid)
	n.flush(&w.ds)
	if lane != nil {
		lane.Span(obs.KPack, tid, -1, 0, t0)
	}

	// The tile's sends are issued: it is executed.
	n.live.retire(p, w.max, cellMax{max: tileMax, set: cells > 0})
	n.tileDone(p, w, cells, sentRemote, stall)
}

// unpackEdges copies the tile's received edges into the ghost shell.
// The producer of edge dep j is p.Tile.coord + offset_j; pack and unpack
// share that producer's slab order, so the elements match exactly. A
// full-slab edge (its length is the run's slab size) unpacks with the
// precompiled strided copy regardless of how the producer packed it;
// partial boundary slabs copy the spans of the producer's slab shape.
func (n *node) unpackEdges(p *pendTile, w *workerState) {
	tl := n.tl
	fast := n.rows != nil
	for _, ed := range p.Tile.edges {
		if ed.data == nil {
			continue
		}
		if fast && int64(len(ed.data)) == n.rows.InteriorEdgeSize(ed.dep) {
			n.rows.UnpackInterior(ed.dep, w.buf, ed.data)
			continue
		}
		producer := w.tbuf
		for k, off := range tl.TileDeps[ed.dep].Offset {
			producer[k] = p.Tile.coord[k] + off
		}
		var got int
		if fast {
			w.partials++
			got = w.shapes.UnpackPartial(ed.dep, producer, w.buf, ed.data)
		} else {
			tl.ForEachEdgeCell(n.prep.params, producer, ed.dep, func(i []int64) bool {
				if got < len(ed.data) {
					w.buf[tl.UnpackLoc(ed.dep, i)] = ed.data[got]
				}
				got++
				return true
			})
		}
		if got != len(ed.data) {
			side := "short"
			if len(ed.data) > got {
				side = "long"
			}
			panic(fmt.Sprintf("engine: unpack size mismatch: edge %d of tile %v has %d values for %d slab cells (the edge is %s)",
				ed.dep, p.Tile.coord, len(ed.data), got, side))
		}
	}
	// Released at once, onto this worker's free stack: no cut sees a
	// tile between unpack and retire.
	freedEdges, freedElems := releaseEdges(p, &w.bufs)
	n.pendingEdges.Add(-freedEdges)
	n.bufferedElems.Add(-freedElems)
}

// sendEdges packs the tile's outgoing edges and delivers them locally
// or sends them to the owning rank (steps 4a/4b of Section V-A).
// Buffers come from the worker's free stack, as long as the slab over
// the declared parameter bounds, so packing never grows a slice;
// interior tiles fill the run's slab with strided copies. A core tile's
// consumers all exist, a consumer in the tile's own load-balancing slab
// is this node's without a lookup, and a local consumer's table keys
// are a step from the tile's own.
// Returns the remote sends issued and the time they spent stalled.
func (n *node) sendEdges(p *pendTile, w *workerState, interior bool, tid string) (sentRemote int64, stallSum time.Duration) {
	tl := n.tl
	lane := w.lane
	fast := n.rows != nil
	for j := range tl.TileDeps {
		consumer := w.tbuf
		for k, off := range tl.TileDeps[j].Offset {
			consumer[k] = p.Tile.coord[k] - off
		}
		if !p.Tile.core && !w.probe.InSpace(consumer) {
			continue
		}
		size := n.prep.rows.InteriorEdgeSize(j)
		data, ok := w.bufs.Get(int(size))
		if !ok {
			data = mpi.GetData(w.bufs.Size())[:size]
		}
		switch {
		case interior:
			n.rows.PackInterior(j, w.buf, data)
		case fast:
			data = w.shapes.PackPartial(j, p.Tile.coord, w.buf, data[:0])
		default:
			data = data[:0]
			tl.ForEachEdgeCell(n.prep.params, p.Tile.coord, j, func(i []int64) bool {
				data = append(data, w.buf[tl.Loc(i)])
				return true
			})
		}
		owner := n.id
		if !n.prep.sameSlab[j] {
			owner = n.ownerOf(consumer)
		}
		if owner == n.id {
			pk, rk := n.live.tab.Consumer(p, j)
			n.deliver(consumer, pk, rk, j, data, false, lane, &w.ds)
			continue
		}
		meta := mpi.GetMeta(len(consumer))
		copy(meta, consumer)
		var sendT0 int64
		if lane != nil {
			sendT0 = lane.Now()
		}
		stall := n.rank.Send(owner, j, data, meta)
		if lane != nil {
			if stall > 0 {
				lane.Emit(obs.Event{Kind: obs.KStall, Start: sendT0, Dur: int64(stall), Tile: tid, Dep: int32(j)})
			}
			lane.Span(obs.KSend, obs.TileID(consumer), int32(j), int64(len(data)), sendT0)
		}
		sentRemote++
		stallSum += stall
	}
	return sentRemote, stallSum
}

// tileDone is execTile's epilogue: the batched per-tile stats, the
// checkpoint cadence, crash injection and voluntary leave triggers and
// the termination check.
func (n *node) tileDone(p *pendTile, w *workerState, cells, sentRemote int64, stall time.Duration) {
	lane := w.lane
	var crash, wantLeave bool
	n.mu.Lock()
	n.st.TilesExecuted++
	n.st.CellsComputed += cells
	n.st.EdgesSentRemote += sentRemote
	n.st.SendStallTime += stall
	n.executed++
	if n.ckptEvery > 0 && !n.crashed && !n.done && n.executed%n.ckptEvery == 0 {
		select {
		case n.ckptDue <- struct{}{}:
		default: // already due
		}
	}
	if n.crashAt > 0 && !n.crashed && n.executed >= n.crashAt {
		n.crashed = true // no further checkpoints: the crash point is final
		crash = true
	}
	finished := n.executed == n.ownedTotal
	if n.elastic && n.leaveAt >= 0 && (n.executed >= n.leaveAt || finished) {
		// Voluntary departure: ask the coordinator out once the
		// threshold is reached — or on local completion, so a rank
		// whose tiles ran out early still honours its leave (and the
		// coordinator's count of expected leaves).
		n.leaveAt = -1
		wantLeave = true
	}
	n.mu.Unlock()
	if crash {
		n.cfg.CrashFn()
	}
	if wantLeave {
		n.et.SendElastic(0, mpi.ElasticLeave, nil)
	}
	if n.elastic {
		select {
		case n.kick <- struct{}{}:
		default:
		}
	}
	// Sample the pending-edge curve (the Figure 4 quantity as a time
	// series) and the ready-queue depth at every tile completion.
	if lane != nil {
		lane.Instant(obs.KPending, "", -1, n.pendingEdges.Load())
		lane.Instant(obs.KQueueDepth, "", -1, n.pool.Len())
	}
	if w.ds.spare == nil {
		w.ds.spare = p // reused by this worker's next pending-table miss
	}
	if finished {
		n.checkFinished()
	}
}

// badDone reports a kernel that answered outside [1, N].
func badDone(c *Ctx, tile []int64) {
	panic(fmt.Sprintf("engine: kernel set Done=%d of N=%d in tile %v", c.Done, c.N, tile))
}

// execCellsChecked is the reference cell loop: the exact
// bound-evaluating enumerator with DepLenAt at every cell, all in
// overflow-checked arithmetic. It runs when DisableFastPath is set or
// the row plan's overflow proof failed, and is what the oracle diffs the
// row path against: every call offers a run of one cell, so a
// run-capable kernel executes the same body at run length 1.
func (n *node) execCellsChecked(p *pendTile, w *workerState) (cells int64, tileMax float64) {
	tl := n.tl
	np := len(n.prep.params)
	tileMax = math.Inf(-1)
	tl.ForEachCell(n.prep.params, p.Tile.coord, func(i []int64) bool {
		cells++
		loc := tl.Loc(i)
		for k := range i {
			w.x[k] = i[k] + tl.Widths[k]*p.Tile.coord[k]
			w.specVals[np+k] = w.x[k]
		}
		w.ctx.Loc = loc
		w.ctx.I = i
		for j := range w.ctx.DepLoc {
			w.ctx.DepLoc[j] = loc + n.prep.depLocOff[j]
			ln := tl.DepLenAt(j, w.specVals)
			w.ctx.DepLen[j] = ln
			w.ctx.DepValid[j] = ln > 0
		}
		w.ctx.Done = 1 // N stays at the 1 newWorkerState set
		n.kernel(&w.ctx)
		if w.ctx.Done != 1 {
			badDone(&w.ctx, p.Tile.coord)
		}
		if v := w.buf[loc]; v > tileMax {
			tileMax = v
		}
		return true
	})
	return cells, tileMax
}

// execRows is the row runner: it replays the tile's shape (tiling.Shape:
// its rows' runs of constant dependence validity, in execution order)
// around the one inner cell loop below, which hands the kernel
// what is left of the run — in either direction, N cells from the
// current one — and advances by the Done cells the kernel took. Validity
// is set where it changes, so once per interior tile, and with it an
// interior tile's range lengths when none varies over the tile
// (tiling.ShapeReader.ConstLens); elsewhere, where a valid range
// dependence's length varies along a run, the offer is cut to the cells
// that share the current lengths.
func (n *node) execRows(p *pendTile, w *workerState, interior bool) (cells int64, tileMax float64) {
	tl := n.tl
	ctx := &w.ctx
	// Slice headers live in locals: the kernel call cannot change them,
	// so the cell loop reloads and re-checks nothing.
	depOff, depLoc := n.prep.depLocOff, ctx.DepLoc[:len(n.prep.depLocOff)]
	depValid, depLen := ctx.DepValid, ctx.DepLen
	kernel := n.kernel
	buf, x, xbase, idx := w.buf, w.x, w.xbase, ctx.I
	for k, wd := range tl.Widths {
		xbase[k] = wd * p.Tile.coord[k]
	}
	outer, in := tl.Dense[:len(tl.Dense)-1], tl.Dense[len(tl.Dense)-1]
	no := len(outer)
	li, xi, xb := &idx[in.Var], &x[in.Var], xbase[in.Var]
	dir, step := ctx.Dir, ctx.Step
	// The tile maximum folds in two compare chains, tileMax and m1,
	// merged when the tile ends. Each keeps its running maximum across
	// runs: on values that rise along a run, as lcs2's do, a chain
	// restarted per run would pass most compares and mispredict. v > m
	// keeps NaN out, and which of two equal zeros is kept already
	// depends on the schedule across tiles.
	tileMax = math.Inf(-1)
	m1 := tileMax
	sh := w.shapes.Cells(p.Tile.coord, interior)
	valid := ^uint64(0) // no run's: bit 63 is never a dependence
	settled := false    // every range length is constant over the tile and set
	row, rowLoc := int32(-1), int64(0)
	for q := range sh.Runs {
		run := &sh.Runs[q]
		if run.Row != row {
			// Only the levels this row changes: the first run of the tile
			// rewrites them all.
			row, rowLoc = run.Row, sh.Loc[run.Row]
			for l := int(run.OuterFrom); l < no; l++ {
				L, v := outer[l].Var, sh.Outer[int(row)*no+l]
				idx[L], x[L] = v, xbase[L]+v
			}
		}
		if run.Valid != valid {
			valid = run.Valid
			for j := range depValid {
				depValid[j], depLen[j] = valid>>j&1 != 0, int64(valid>>j&1)
			}
			// An interior tile's runs share one validity, so this is once
			// per tile: lengths constant over it are set here, for good.
			settled = interior && w.shapes.ConstLens(depLen)
		}
		i, cnt := run.From, (run.To-run.From)*dir+1
		cells += cnt
		ranged := run.Ranged() && !settled
		for loc := rowLoc + i*in.Stride; cnt > 0; {
			*li, *xi = i, xb+i
			ctx.Loc = loc
			for j, off := range depOff {
				depLoc[j] = loc + off
			}
			offer := cnt
			if ranged {
				offer = w.shapes.LenRun(run, i, cnt, depLen)
				w.lenRuns++
			}
			ctx.N, ctx.Done = offer, 1
			kernel(ctx)
			done := ctx.Done
			if done < 1 || done > offer {
				badDone(ctx, p.Tile.coord)
			}
			i += done * dir
			cnt -= done
			for ; done > 1; done -= 2 {
				if v := buf[loc]; v > tileMax {
					tileMax = v
				}
				if v := buf[loc+step]; v > m1 {
					m1 = v
				}
				loc += 2 * step
			}
			if done > 0 {
				if v := buf[loc]; v > tileMax {
					tileMax = v
				}
				loc += step
			}
		}
	}
	if m1 > tileMax {
		tileMax = m1
	}
	return cells, tileMax
}
