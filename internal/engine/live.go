// The live-tile table: what a rank knows about a tile between its first
// buffered edge and its retirement — the pending-tile table of Section
// V-B holding the O(n^{d-1}) buffered edges. A tile here is pending
// (dependence edges still missing), started (complete, queued or
// executing) or executed. This file owns those maps, the lock rule over
// them and the one serialisation of a live tile; checkpointing, resume
// (checkpoint.go) and elastic migration (elastic.go) are its callers.
//
// A plain run stripes the pending map by tile key so concurrent
// deliveries rarely share a lock, releases a tile's edges as soon as
// they are unpacked, and keeps no started or executed state. A tracking
// run (fault tolerance or elastic membership) needs consistent cuts, so
// the table collapses to one stripe whose lock covers every per-tile
// transition, edges stay attached until retire, and a duplicate filter
// drops any edge for a tile already complete or executed (a restarted
// peer's replayed history, a resumed rank's recomputed sends, a stale
// migration). Tracking runs are not scheduler-bound.
//
// Record section, shared by the DPCKPT1 file and the migration payload
// (little-endian 64-bit words; diagram in docs/FAULT_TOLERANCE.md):
//
//	ntiles | tiles{ coords[d] | nedges | edges{ dep | n | data[n] } }
//
// A sealed blob ends with the FNV-1a sum of everything before it.

package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"dpgen/internal/balance"
	"dpgen/internal/mpi"
	"dpgen/internal/obs"
	"dpgen/internal/sched"
)

// pendTile is a tile known to a node: pending (waiting on dependence
// edges) and then queued for execution. The scheduling header (priority
// key, wavefront level, arrival order, home shard) is the shared
// scheduler's.
type pendTile = sched.Item[tileState]

// tileState is the engine's own part of a pendTile.
type tileState struct {
	coord     []int64 // tile index, Vars order
	remaining int     // unsatisfied dependence edges
	// core is tiling.TileProbe.Core's answer, taken when the entry is
	// built: the tile is interior and every producer and consumer tile
	// exists, so nothing further is asked of the polytope about it.
	core bool
	// edges holds the received, still-packed edges.
	edges []edge
	got   uint64 // per-dep arrival bitmask, the duplicate filter's finest grain
}

type edge struct {
	dep  int
	data []float64
}

// edgeBufs is a worker's free stack of edge buffers: what a tile
// unpacked is what it next packs into, so on a steady wavefront the
// buffers cycle on their worker and the shared pool (two sync.Pool
// operations per Get or Put) sees only the imbalance — underflow, and
// overflow past the stack's fixed capacity. Every buffer it hands out has
// the capacity of the run's largest edge slab, so any of them serves any
// edge. A nil *edgeBufs is the pool alone.
type edgeBufs struct {
	free [][]float64
	size int // capacity every buffer handed out has at least
}

// get returns a buffer of length n <= size with unspecified contents.
func (b *edgeBufs) get(n int) []float64 {
	if l := len(b.free); l > 0 {
		s := b.free[l-1]
		b.free[l-1] = nil
		b.free = b.free[:l-1]
		return s[:n]
	}
	return mpi.GetData(b.size)[:n]
}

// put recycles a buffer no longer in use. One too small to serve every
// edge (a received message's, a checkpoint record's) goes to the pool.
func (b *edgeBufs) put(s []float64) {
	if b == nil || len(b.free) == cap(b.free) || cap(s) < b.size {
		mpi.PutData(s)
		return
	}
	b.free = append(b.free, s)
}

// releaseEdges recycles a tile's edge buffers through bufs and reports
// how many edges and elements that freed.
func releaseEdges(p *pendTile, bufs *edgeBufs) (edges, elems int64) {
	for i, ed := range p.Tile.edges {
		if ed.data != nil {
			edges++
			elems += int64(len(ed.data))
			bufs.put(ed.data)
		}
		p.Tile.edges[i] = edge{}
	}
	p.Tile.edges = p.Tile.edges[:0]
	return edges, elems
}

// pstripe is one stripe of the pending map. Deliveries hash their
// consumer's integer key to a stripe, so two workers delivering edges
// for different tiles almost never contend.
type pstripe struct {
	mu      sync.Mutex
	pending map[uint64]*pendTile
}

// liveTable is a node's dynamic tile state. Its methods are the only
// code that touches the maps below. Lock order where several locks are
// held: stripe lock → shard.mu → node.mu (the reverse never occurs).
type liveTable struct {
	stripes []pstripe
	smask   uint64

	// Tracking state, all guarded by stripes[0].mu (a tracking run's
	// only stripe): the executed tiles' keys, the started tiles (edges
	// still attached until retire), and for elastic runs this rank's
	// executed-tile census per load-balancing slab, indexed like
	// slabs.Slabs() — stable across rebalances.
	track    bool
	started  map[uint64]*pendTile
	executed map[uint64]struct{}
	slabs    *balance.Assignment
	census   []int64
	dups     int64 // edges the duplicate filter dropped

	// newTile builds a pending entry for a tile's first edge. It does
	// polytope work, so addEdge calls it with no lock held.
	newTile func(ds *delivState, consumer []int64) *pendTile

	// npending counts entries across all stripes. Every worker writes
	// it, so it sits a cache line away from the read-only fields above.
	_        [64]byte
	npending atomic.Int64
}

// newLiveTable sizes the table for a node's worker count. track selects
// the tracking regime; a non-nil slabs adds the per-slab census.
func newLiveTable(threads int, track bool, slabs *balance.Assignment, newTile func(*delivState, []int64) *pendTile) *liveTable {
	lt := &liveTable{track: track, newTile: newTile}
	// A few stripes per worker, power of two for the mask.
	nstripes := 1
	if !track {
		nstripes = 4
		for nstripes < 4*threads && nstripes < 64 {
			nstripes *= 2
		}
	}
	lt.stripes = make([]pstripe, nstripes)
	for i := range lt.stripes {
		lt.stripes[i].pending = make(map[uint64]*pendTile)
	}
	lt.smask = uint64(nstripes - 1)
	if track {
		lt.started = make(map[uint64]*pendTile)
		lt.executed = make(map[uint64]struct{})
		if slabs != nil {
			lt.slabs = slabs
			lt.census = make([]int64, len(slabs.Slabs()))
		}
	}
	return lt
}

// past reports whether tile k is beyond dependence counting: executed,
// or complete and queued. Tracking runs only; stripes[0].mu held.
func (lt *liveTable) past(k uint64) bool {
	if _, ok := lt.executed[k]; ok {
		return true
	}
	_, ok := lt.started[k]
	return ok
}

// addEdge buffers one dependence edge for the tile with key k. It
// returns the tile when this edge completed its dependences (the caller
// enqueues it), and dup when the duplicate filter dropped the edge (the
// caller still owns data) — so each cell stays computed exactly once
// from determined inputs, which keeps recovery and migration
// bit-identical.
func (lt *liveTable) addEdge(ds *delivState, consumer []int64, k uint64, dep int, data []float64) (ready *pendTile, dup bool) {
	st := &lt.stripes[k&lt.smask]
	st.mu.Lock()
	p := st.pending[k]
	if p == nil && !(lt.track && lt.past(k)) {
		// First edge for this tile. The entry needs polytope work that
		// must not run under the lock: release it, prepare, re-check.
		// If another deliverer won the race, or the tile went past
		// counting meanwhile, the prepared entry is the next spare.
		st.mu.Unlock()
		fresh := lt.newTile(ds, consumer)
		st.mu.Lock()
		if p = st.pending[k]; p == nil && !(lt.track && lt.past(k)) {
			p = fresh
			p.Tile.got = 0
			st.pending[k] = p
			lt.npending.Add(1)
		} else {
			ds.spare = fresh
		}
	}
	bit := uint64(1) << uint(dep)
	if p == nil || (lt.track && p.Tile.got&bit != 0) {
		// The tile is past counting, or already holds this dependence.
		lt.dups++
		st.mu.Unlock()
		return nil, true
	}
	p.Tile.got |= bit
	p.Tile.edges = append(p.Tile.edges, edge{dep: dep, data: data})
	p.Tile.remaining--
	if p.Tile.remaining == 0 {
		delete(st.pending, k)
		lt.npending.Add(-1)
		if lt.track {
			lt.started[k] = p
		}
		ready = p
	}
	st.mu.Unlock()
	return ready, false
}

// seed admits a tile with no producers (an initial tile, which no edge
// will ever announce) as started. False means it is already past
// counting — a resumed rank's executed seed — and must not be queued.
func (lt *liveTable) seed(p *pendTile, k uint64) bool {
	if !lt.track {
		return true
	}
	st := &lt.stripes[0]
	st.mu.Lock()
	defer st.mu.Unlock()
	if lt.past(k) {
		return false
	}
	lt.started[k] = p
	return true
}

// unpacked is called once a tile's edges are copied into its buffer: a
// plain run recycles them at once, onto the unpacking worker's free
// stack; a tracking run holds them until retire.
func (lt *liveTable) unpacked(p *pendTile, bufs *edgeBufs) {
	if !lt.track {
		releaseEdges(p, bufs)
	}
}

// cellMax is a running maximum over computed cells: one worker's fold of
// the tiles it executed (the run's Result.Max is the merge over workers
// and nodes). Each worker writes only its own, padded to a cache line of
// its own; readers are ordered after the writes by the table lock (a
// tracking run's cut) or by the node's finish.
type cellMax struct {
	max float64
	set bool // some cell was computed
	_   [48]byte
}

// merge folds another maximum in.
func (m *cellMax) merge(o cellMax) {
	if o.set && (!m.set || o.max > m.max) {
		m.max, m.set = o.max, true
	}
}

// retire marks a tile executed once its sends are issued and folds its
// maximum into the executing worker's. On a tracking run started →
// executed, census bump, fold and edge release are one transition under
// the table lock, so a cut never sees the tile in two states or in none,
// nor an executed tile whose maximum is missing.
func (lt *liveTable) retire(p *pendTile, k uint64, fold *cellMax, tile cellMax) {
	if !lt.track {
		fold.merge(tile)
		return
	}
	st := &lt.stripes[0]
	st.mu.Lock()
	delete(lt.started, k)
	lt.executed[k] = struct{}{}
	if lt.census != nil {
		if si := lt.slabs.SlabIndex(p.Tile.coord); si >= 0 {
			lt.census[si]++
		}
	}
	fold.merge(tile)
	releaseEdges(p, nil)
	st.mu.Unlock()
}

// extract removes every live tile whose owner is no longer self,
// grouped by new owner. queued holds those that were started: they also
// sit, by pointer, in a ready queue the caller must purge. The caller
// has the workers paused, so no tile is executing.
func (lt *liveTable) extract(self int, owner func(tile []int64) int) (out map[int][]*pendTile, queued map[*pendTile]bool) {
	out = make(map[int][]*pendTile)
	queued = make(map[*pendTile]bool)
	st := &lt.stripes[0]
	st.mu.Lock()
	for k, p := range st.pending {
		if o := owner(p.Tile.coord); o != self {
			delete(st.pending, k)
			lt.npending.Add(-1)
			out[o] = append(out[o], p)
		}
	}
	for k, p := range lt.started {
		if o := owner(p.Tile.coord); o != self {
			delete(lt.started, k)
			out[o] = append(out[o], p)
			queued[p] = true
		}
	}
	st.mu.Unlock()
	return out, queued
}

// freeze and thaw bracket a consistent cut of a tracking table: while
// frozen no edge arrives and no tile starts or retires, so snapshot and
// the node's counters (read under node.mu inside) describe one instant.
func (lt *liveTable) freeze() { lt.stripes[0].mu.Lock() }
func (lt *liveTable) thaw()   { lt.stripes[0].mu.Unlock() }

// snapshot appends the frozen table's durable state: the executed keys
// as count | keys, then the records of every tile holding edges —
// pending ones, and started ones not yet unpacked and executed.
func (lt *liveTable) snapshot(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(lt.executed)))
	for k := range lt.executed {
		b = binary.LittleEndian.AppendUint64(b, k)
	}
	var tiles []*pendTile
	for _, m := range []map[uint64]*pendTile{lt.stripes[0].pending, lt.started} {
		for _, p := range m {
			if len(p.Tile.edges) > 0 {
				tiles = append(tiles, p)
			}
		}
	}
	return appendRecords(b, tiles)
}

// restoreExecuted reinstates a checkpoint's executed set. Runs before
// any worker or receiver exists.
func (lt *liveTable) restoreExecuted(keys []uint64) {
	for _, k := range keys {
		lt.executed[k] = struct{}{}
	}
}

// censusCopy snapshots the per-slab executed counts.
func (lt *liveTable) censusCopy() []int64 {
	st := &lt.stripes[0]
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]int64(nil), lt.census...)
}

// ---- the record codec ----

// ckptTile is one decoded live-tile record. Its edge buffers come from
// the mpi data pool and pass to the table when the record is applied.
type ckptTile struct {
	tile  []int64
	edges []ckptEdge
}

// ckptEdge is one buffered dependence edge of a record.
type ckptEdge = edge

// appendRecords serialises live tiles in the record format above. It is
// the only writer of tile/edge records.
func appendRecords(b []byte, tiles []*pendTile) []byte {
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u64(uint64(len(tiles)))
	for _, p := range tiles {
		for _, c := range p.Tile.coord {
			u64(uint64(c))
		}
		u64(uint64(len(p.Tile.edges)))
		for _, ed := range p.Tile.edges {
			u64(uint64(ed.dep))
			u64(uint64(len(ed.data)))
			for _, v := range ed.data {
				u64(math.Float64bits(v))
			}
		}
	}
	return b
}

// readRecords decodes a record section against the run's d loop
// variables and ndeps tile dependences — never sizes taken from the
// bytes. It is the only reader of tile/edge records; errors go to r.err.
func readRecords(r *blobReader, d, ndeps int) []ckptTile {
	nt := r.count(8 * (d + 1))
	tiles := make([]ckptTile, 0, nt)
	for i := 0; i < nt && r.err == nil; i++ {
		t := ckptTile{tile: make([]int64, d)}
		for k := range t.tile {
			t.tile[k] = r.i64()
		}
		ne := r.count(16)
		for j := 0; j < ne && r.err == nil; j++ {
			dep := r.i64()
			if r.err == nil && (dep < 0 || dep >= int64(ndeps)) {
				r.err = fmt.Errorf("engine: record edge names dependence %d of %d", dep, ndeps)
			}
			ed := ckptEdge{dep: int(dep), data: mpi.GetData(r.count(8))}
			for v := range ed.data {
				ed.data[v] = r.f64()
			}
			t.edges = append(t.edges, ed)
		}
		tiles = append(tiles, t)
	}
	return tiles
}

// applyRecords re-materialises decoded live tiles on this node: every
// buffered edge is re-delivered through the normal delivery path,
// rebuilding the tile's dependence state as it was (the duplicate
// filter makes a second application a no-op), and a record without
// edges — an initial tile — is seeded. Returns the edges applied.
func (n *node) applyRecords(recs []ckptTile, lane *obs.Lane, ds *delivState) (edges int64) {
	for _, t := range recs {
		if len(t.edges) == 0 {
			n.seedTile(t.tile, lane, ds)
		}
		for _, ed := range t.edges {
			n.deliver(t.tile, ed.dep, ed.data, false, lane, ds)
			edges++
		}
	}
	n.flush(ds)
	return edges
}

// sealBlob appends the FNV-1a sum of b.
func sealBlob(b []byte) []byte {
	h := fnv.New64a()
	h.Write(b)
	return binary.LittleEndian.AppendUint64(b, h.Sum64())
}

// openBlob verifies a sealed blob and returns the body before the sum.
// FNV catches corruption, not forgery: the body is still untrusted.
func openBlob(blob []byte) (body []byte, ok bool) {
	if len(blob) < 8 {
		return nil, false
	}
	body = blob[:len(blob)-8]
	h := fnv.New64a()
	h.Write(body)
	return body, h.Sum64() == binary.LittleEndian.Uint64(blob[len(blob)-8:])
}

// blobReader is a bounds-checked cursor over an opened blob.
type blobReader struct {
	b   []byte
	err error
}

func (r *blobReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = fmt.Errorf("engine: truncated blob")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *blobReader) i64() int64   { return int64(r.u64()) }
func (r *blobReader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads an element count, rejecting one whose elements at width
// bytes each could not fit in what is left, so a corrupt count never
// sizes an allocation. Returns 0 on error.
func (r *blobReader) count(width int) int {
	v := r.i64()
	if r.err == nil && (v < 0 || v > int64(len(r.b)/width)) {
		r.err = fmt.Errorf("engine: corrupt count %d", v)
	}
	if r.err != nil {
		return 0
	}
	return int(v)
}
