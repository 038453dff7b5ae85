// The live-tile table: what a rank knows about a tile between its first
// buffered edge and its retirement — the pending-tile table of Section
// V-B holding the O(n^{d-1}) buffered edges. This file owns that state,
// the lock rule over it and the one serialisation of a live tile;
// checkpointing, resume (checkpoint.go) and elastic migration
// (elastic.go) are its callers.
//
// The table is sched.Table, one page per load-balancing slab in flight
// (balance.Layout); a plain run delivers through its lock-free
// countdown. This file keeps the engine's own: the tracking regime over
// the slots and the record codec.
//
// On a tracking run (fault tolerance or elastic membership) a slot is
// the tile's whole state — nil, an entry still counting edges (pending),
// an entry with none left (queued, until it retires) or executedTile —
// so pages are never recycled. One lock covers every transition, and
// the slot is the duplicate filter: an edge for a queued or executed
// tile, or one the entry already holds, is dropped (a restarted peer's
// replayed history, a resumed rank's recomputed sends, a stale
// migration). On every run a tile's edges are released at its unpack:
// the cut (elastic.go) pauses workers at a tile boundary, so no
// snapshot sees a tile between unpack and retire.
//
// Record section, shared by the DPCKPT2 file and the migration payload
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
	"dpgen/internal/tiling"
)

// pendTile is a tile known to a node: pending (waiting on dependence
// edges) and then queued for execution. The header (priority key,
// wavefront level, arrival order, missing-edge count) is the shared
// runtime's.
type pendTile = sched.Item[tileState]

// executedTile fills a retired tile's slot on a tracking run.
var executedTile = new(pendTile)

// tileState is the engine's own part of a pendTile. Every delivery path
// hands over a non-nil edge slice, an empty edge's included.
type tileState struct {
	coord []int64 // tile index, Vars order
	// core is tiling.TileProbe.Core's answer, taken when the entry is
	// built: the tile is interior and every producer and consumer tile
	// exists, so nothing further is asked of the polytope about it.
	core bool
	// edges holds the received, still-packed edges, slot j for tile
	// dependence j (data nil until it arrives): a delivery writes its own.
	edges []edge
}

type edge struct {
	dep  int
	data []float64
}

// nedges counts the edges the tile holds.
func (s *tileState) nedges() (n int) {
	for _, ed := range s.edges {
		if ed.data != nil {
			n++
		}
	}
	return n
}

// releaseEdges recycles a tile's edge buffers through the worker's free
// stack bufs — what it cannot keep (it is full or nil, or the buffer is
// too small to serve every edge) goes to the shared pool — and reports
// how many edges and elements that freed.
func releaseEdges(p *pendTile, bufs *sched.Bufs[float64]) (edges, elems int64) {
	for i, ed := range p.Tile.edges {
		if ed.data != nil {
			edges++
			elems += int64(len(ed.data))
			if !bufs.Put(ed.data) {
				mpi.PutData(ed.data)
			}
		}
		p.Tile.edges[i] = edge{}
	}
	return edges, elems
}

// liveTable is a node's dynamic tile state. Its methods are the only
// code that touches the table's slots. A tracking run takes mu for every
// change to a slot. Lock order where several locks are held: mu →
// shard.mu → node.mu (the reverse never occurs); the table's page lock is
// a leaf. A plain run takes the page lock twice per slab and no lock per
// edge.
type liveTable struct {
	tab *sched.Table[tileState]

	// entries counts the pending entries: each delivery scratch adds the
	// entries it installed less those it completed when it is flushed.
	entries atomic.Int64

	// track selects the tracking regime, whose slots mu guards.
	track bool
	mu    sync.Mutex
	dups  int64 // edges the duplicate filter dropped; mu held

	// newTile builds a pending entry for a tile's first edge; it does
	// polytope work but takes no lock.
	newTile func(ds *delivState, consumer []int64) *pendTile
}

// newLiveTable builds a node's table over layout for the tile
// dependences' offsets; track selects the tracking regime.
func newLiveTable(layout *balance.Layout, offsets [][]int64, track bool, newTile func(*delivState, []int64) *pendTile) *liveTable {
	return &liveTable{tab: sched.NewTable[tileState](layout.Slab, layout.Rest, layout.Expect, offsets), track: track, newTile: newTile}
}

// publish adds ds's entries installed less completed to the table's
// count, and returns the count.
func (lt *liveTable) publish(ds *delivState) int64 {
	if ds.entries == 0 {
		return lt.entries.Load()
	}
	n := lt.entries.Add(ds.entries)
	ds.entries = 0
	return n
}

// addEdge buffers one dependence edge for a consumer tile, whose table
// keys are pk and rk. It returns the tile when this edge completed its
// dependences (the caller enqueues it), and dup when the duplicate
// filter dropped the edge (the caller still owns data) — so each cell
// stays computed exactly once from determined inputs, which keeps
// recovery and migration bit-identical.
func (lt *liveTable) addEdge(ds *delivState, consumer []int64, pk, rk uint64, dep int, data []float64) (ready *pendTile, dup bool) {
	if lt.track {
		return lt.addEdgeTracked(ds, consumer, pk, rk, dep, data)
	}
	pg, slot := lt.tab.Lookup(pk, rk)
	p := slot.Load()
	if p == nil {
		// First edge for this tile. If another deliverer installs an entry
		// first, this one is the next spare.
		fresh := lt.newTile(ds, consumer)
		fresh.PK, fresh.RK = pk, rk
		var installed bool
		if p, installed = lt.tab.Install(slot, fresh); installed {
			ds.entries++
		} else {
			ds.spare = fresh
		}
	}
	p.Tile.edges[dep] = edge{dep: dep, data: data}
	if !lt.tab.Arrive(pg, slot, p) {
		return nil, false
	}
	ds.entries--
	return p, false
}

// addEdgeTracked is addEdge on a tracking run: the same steps under mu,
// behind the duplicate filter. A completed entry stays in its slot,
// queued, until it retires.
func (lt *liveTable) addEdgeTracked(ds *delivState, consumer []int64, pk, rk uint64, dep int, data []float64) (ready *pendTile, dup bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	_, slot := lt.tab.Lookup(pk, rk)
	p := slot.Load()
	switch {
	case p == nil:
		p = lt.newTile(ds, consumer)
		p.PK, p.RK = pk, rk
		slot.Store(p)
		ds.entries++
	case p == executedTile || p.Missing.Load() == 0 || p.Tile.edges[dep].data != nil:
		lt.dups++
		return nil, true
	}
	p.Tile.edges[dep] = edge{dep: dep, data: data}
	if p.Missing.Add(-1) != 0 {
		return nil, false
	}
	ds.entries--
	return p, false
}

// seed records the keys of a tile with no producers (an initial tile,
// which no edge will ever announce) and admits it as queued. False
// means its slot is taken — a resumed rank's executed seed — and it
// must not be queued.
func (lt *liveTable) seed(p *pendTile) bool {
	p.PK, p.RK = lt.tab.Keys(p.Tile.coord)
	if !lt.track {
		return true
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	_, slot := lt.tab.Lookup(p.PK, p.RK)
	if slot.Load() != nil {
		return false
	}
	slot.Store(p)
	return true
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
// maximum into the executing worker's. On a tracking run the slot's
// change to executedTile and the fold are one transition under the
// table lock, so a cut never sees an executed tile whose maximum is
// missing.
func (lt *liveTable) retire(p *pendTile, fold *cellMax, tile cellMax) {
	if !lt.track {
		fold.merge(tile)
		return
	}
	lt.mu.Lock()
	_, slot := lt.tab.Lookup(p.PK, p.RK)
	slot.Store(executedTile)
	fold.merge(tile)
	lt.mu.Unlock()
}

// eachSlot calls f on every filled slot of a tracking table, mu held,
// with the slot's checkpoint key: slab key × rest.Len() + rest key.
func (lt *liveTable) eachSlot(f func(key uint64, slot *atomic.Pointer[pendTile], p *pendTile)) {
	n := lt.tab.RestKey.Len()
	for sk := uint64(0); sk < lt.tab.PageKey.Len(); sk++ {
		if pg := lt.tab.Loaded(sk); pg != nil {
			for rk := range pg.Slots {
				if p := pg.Slots[rk].Load(); p != nil {
					f(sk*n+uint64(rk), &pg.Slots[rk], p)
				}
			}
		}
	}
}

// extract removes every live tile whose owner is no longer self,
// grouped by new owner. queued holds those with no edge left to count:
// they also sit, by pointer, in a ready queue the caller must purge. The
// caller has the workers paused, so no tile is executing.
func (lt *liveTable) extract(self int, owner func(tile []int64) int) (out map[int][]*pendTile, queued map[*pendTile]bool) {
	out = make(map[int][]*pendTile)
	queued = make(map[*pendTile]bool)
	lt.mu.Lock()
	lt.eachSlot(func(_ uint64, slot *atomic.Pointer[pendTile], p *pendTile) {
		if p == executedTile {
			return
		}
		if o := owner(p.Tile.coord); o != self {
			slot.Store(nil)
			if p.Missing.Load() == 0 {
				queued[p] = true
			} else {
				lt.entries.Add(-1)
			}
			out[o] = append(out[o], p)
		}
	})
	lt.mu.Unlock()
	return out, queued
}

// freeze and thaw bracket a consistent cut of a tracking table: while
// frozen no edge arrives and no tile starts or retires, so snapshot and
// the node's counters (read under node.mu inside) describe one instant.
func (lt *liveTable) freeze() { lt.mu.Lock() }
func (lt *liveTable) thaw()   { lt.mu.Unlock() }

// snapshot appends the frozen table's durable state: the executed keys,
// ascending, as count | keys, then the records of every tile holding
// edges — pending ones, and queued ones with producers.
func (lt *liveTable) snapshot(b []byte) []byte {
	var keys []uint64
	var tiles []*pendTile
	lt.eachSlot(func(key uint64, _ *atomic.Pointer[pendTile], p *pendTile) {
		switch {
		case p == executedTile:
			keys = append(keys, key)
		case p.Tile.nedges() > 0:
			tiles = append(tiles, p)
		}
	})
	b = binary.LittleEndian.AppendUint64(b, uint64(len(keys)))
	for _, k := range keys {
		b = binary.LittleEndian.AppendUint64(b, k)
	}
	return appendRecords(b, tiles)
}

// restoreExecuted reinstates a checkpoint's executed keys, checked
// against the layout first. Runs before any worker or receiver exists.
func (lt *liveTable) restoreExecuted(keys []uint64) {
	n := lt.tab.RestKey.Len()
	for _, k := range keys {
		lt.tab.Take(k / n).Slots[k%n].Store(executedTile)
	}
}

// executedPerSlab counts, for each of slabs, the slots holding
// executedTile: this rank's executed tiles in that slab.
func (lt *liveTable) executedPerSlab(slabs []balance.Slab) []int64 {
	counts := make([]int64, len(slabs))
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for i, s := range slabs {
		if pg := lt.tab.Loaded(lt.tab.PageKey.OfLB(s.LB)); pg != nil {
			for rk := range pg.Slots {
				if pg.Slots[rk].Load() == executedTile {
					counts[i]++
				}
			}
		}
	}
	return counts
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
		u64(uint64(p.Tile.nedges()))
		for _, ed := range p.Tile.edges {
			if ed.data == nil {
				continue
			}
			u64(uint64(ed.dep))
			u64(uint64(len(ed.data)))
			for _, v := range ed.data {
				u64(math.Float64bits(v))
			}
		}
	}
	return b
}

// readRecords decodes a blob's closing record section against the run's
// d loop variables and ndeps tile dependences — never sizes taken from
// the bytes. It is the only reader of tile/edge records; errors go to r.err.
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
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("engine: %d bytes after the records", len(r.b))
	}
	return tiles
}

// checkRecords rejects a decoded record whose tile lies outside the tile
// box, where it has no slot, or outside the iteration space.
func checkRecords(l *balance.Layout, recs []ckptTile, probe *tiling.TileProbe) error {
	for _, t := range recs {
		_, inSlab := l.Slab.Of(t.tile)
		_, inRest := l.Rest.Of(t.tile)
		if !inSlab || !inRest || !probe.InSpace(t.tile) {
			return fmt.Errorf("engine: record names tile %v outside the tile space", t.tile)
		}
	}
	return nil
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
		pk, rk := n.live.tab.Keys(t.tile)
		for _, ed := range t.edges {
			n.deliver(t.tile, pk, rk, ed.dep, ed.data, false, lane, ds)
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
