// The live-tile table: what a rank knows about a tile between its first
// buffered edge and its retirement — the pending-tile table of Section
// V-B holding the O(n^{d-1}) buffered edges. This file owns that state,
// the lock rule over it and the one serialisation of a live tile;
// checkpointing, resume (checkpoint.go) and elastic migration
// (elastic.go) are its callers.
//
// Tiles sit in pages, one per load-balancing slab that has any: a page
// is an array of entry slots over the box every slab's tiles lie in, so
// a tile's slot is found by two integer keys (pageLayout) with no
// hashing. A plain run takes no lock per edge: the first delivery for a
// tile installs its entry by compare-and-swap, each edge fills its own
// dependence's slot of the entry, and the delivery that counts the last
// one down empties the slot and hands the tile on. Once every entry a
// slab will ever hold has completed, its page goes to a free list for the
// next slab, so pages live only while their slab is in flight.
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
// edges) and then queued for execution. The scheduling header (priority
// key, wavefront level, arrival order, home shard) is the shared
// scheduler's.
type pendTile = sched.Item[tileState]

// executedTile fills a retired tile's slot on a tracking run.
var executedTile = new(pendTile)

// tileState is the engine's own part of a pendTile. Every delivery path
// hands over a non-nil edge slice, an empty edge's included.
type tileState struct {
	coord []int64 // tile index, Vars order
	// remaining counts the dependence edges still missing. Deliveries
	// count it down without a lock: the one that reaches zero is ordered
	// after every other's edge, and makes the tile ready.
	remaining atomic.Int64
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
	return edges, elems
}

// pageLayout places one prepared instance's tiles in the pending table:
// the slab key picks a tile's page and the rest key its slot in the
// page; slab key × rest.Len() + rest key names a tile in checkpoints.
// expect holds, per slab key, the entries a plain run's page for that
// slab sees: the slab's tiles less its initial ones, which no edge
// announces. It is computed at Prepare and shared by every run.
type pageLayout struct {
	slab, rest *tiling.TileKey
	expect     []int64
}

// newPageLayout lays out the pending table of the instance a balances.
func newPageLayout(tl *tiling.Tiling, params []int64, a *balance.Assignment) (*pageLayout, error) {
	l := &pageLayout{}
	var err error
	if l.slab, err = tl.NewLBKey(params); err != nil {
		return nil, err
	}
	if l.rest, err = tl.NewRestKey(params); err != nil {
		return nil, err
	}
	if _, err = tl.NewTileKey(params); err != nil { // slab × rest keys must fit one word
		return nil, err
	}
	l.expect = make([]int64, l.slab.Len())
	for _, s := range a.Slabs() {
		l.expect[l.slab.OfLB(s.LB)] = s.Tiles
	}
	for _, t := range a.Initial {
		k, _ := l.slab.Of(t)
		l.expect[k]--
	}
	return l, nil
}

// page is one slab's entry slots, indexed by rest key. On a plain run
// left counts down, from the slab's expected count, the entries it has
// yet to complete; the page is recycled at zero.
type page struct {
	slots []atomic.Pointer[pendTile]
	left  atomic.Int64
	next  *page // free list
}

// liveTable is a node's dynamic tile state. Its methods are the only
// code that touches the pages below. A tracking run takes mu for every
// change to a slot. Lock order where several locks are held: mu →
// shard.mu → node.mu (the reverse never occurs); pageMu is a leaf. A
// plain run takes pageMu twice per slab and no lock per edge.
type liveTable struct {
	layout *pageLayout
	pages  []atomic.Pointer[page] // by slab key; nil where the slab holds no entry

	// pageMu guards taking and recycling pages: the free list and the
	// count of pages allocated, which is the most ever live at once —
	// one is allocated only when none is free.
	pageMu    sync.Mutex
	free      *page
	allocated int

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

// newLiveTable builds a node's table over layout; track selects the
// tracking regime.
func newLiveTable(layout *pageLayout, track bool, newTile func(*delivState, []int64) *pendTile) *liveTable {
	return &liveTable{layout: layout, pages: make([]atomic.Pointer[page], layout.slab.Len()), track: track, newTile: newTile}
}

// page returns the page of slab key sk, taking one — off the free list
// when one is there — if the slab has none.
func (lt *liveTable) page(sk uint64) *page {
	if pg := lt.pages[sk].Load(); pg != nil {
		return pg
	}
	lt.pageMu.Lock()
	defer lt.pageMu.Unlock()
	pg := lt.pages[sk].Load()
	if pg != nil {
		return pg
	}
	if pg = lt.free; pg != nil {
		lt.free, pg.next = pg.next, nil
	} else {
		pg = &page{slots: make([]atomic.Pointer[pendTile], lt.layout.rest.Len())}
		lt.allocated++
	}
	pg.left.Store(lt.layout.expect[sk])
	lt.pages[sk].Store(pg)
	return pg
}

// drop counts one completed entry out of a plain run's page pg of slab
// key sk, its slot already emptied, and recycles the page once its slab
// has completed every expected entry: each edge arrives once, and a
// tile's deliverers are done with the page before its last edge
// completes it.
func (lt *liveTable) drop(sk uint64, pg *page) {
	if pg.left.Add(-1) != 0 {
		return
	}
	lt.pageMu.Lock()
	lt.pages[sk].Store(nil)
	pg.next, lt.free = lt.free, pg
	lt.pageMu.Unlock()
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

// keys returns a tile's slab and rest keys. Every tile the runtime names
// is inside the tile bounds (checkRecords vets decoded ones).
func (lt *liveTable) keys(t []int64) (slab, rest uint64) {
	slab, _ = lt.layout.slab.Of(t)
	rest, _ = lt.layout.rest.Of(t)
	return slab, rest
}

// slot returns a tracking run's slot of tile t; mu held.
func (lt *liveTable) slot(t []int64) *atomic.Pointer[pendTile] {
	sk, rk := lt.keys(t)
	return &lt.page(sk).slots[rk]
}

// addEdge buffers one dependence edge for a consumer tile. It returns the
// tile when this edge completed its dependences (the caller enqueues
// it), and dup when the duplicate filter dropped the edge (the caller
// still owns data) — so each cell stays computed exactly once from
// determined inputs, which keeps recovery and migration bit-identical.
func (lt *liveTable) addEdge(ds *delivState, consumer []int64, dep int, data []float64) (ready *pendTile, dup bool) {
	if lt.track {
		return lt.addEdgeTracked(ds, consumer, dep, data)
	}
	sk, rk := lt.keys(consumer)
	pg := lt.page(sk)
	slot := &pg.slots[rk]
	p := slot.Load()
	if p == nil {
		// First edge for this tile. If another deliverer installs an entry
		// first, this one is the next spare.
		fresh := lt.newTile(ds, consumer)
		if slot.CompareAndSwap(nil, fresh) {
			p = fresh
			ds.entries++
		} else {
			ds.spare, p = fresh, slot.Load()
		}
	}
	return lt.put(ds, sk, pg, slot, p, dep, data), false
}

// addEdgeTracked is addEdge on a tracking run: the same steps under mu,
// behind the duplicate filter. A completed entry stays in its slot,
// queued, until it retires.
func (lt *liveTable) addEdgeTracked(ds *delivState, consumer []int64, dep int, data []float64) (ready *pendTile, dup bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	slot := lt.slot(consumer)
	p := slot.Load()
	switch {
	case p == nil:
		p = lt.newTile(ds, consumer)
		slot.Store(p)
		ds.entries++
	case p == executedTile || p.Tile.remaining.Load() == 0 || p.Tile.edges[dep].data != nil:
		lt.dups++
		return nil, true
	}
	p.Tile.edges[dep] = edge{dep: dep, data: data}
	if p.Tile.remaining.Add(-1) != 0 {
		return nil, false
	}
	ds.entries--
	return p, false
}

// put files an edge in entry p, held in slot of slab key sk's page pg,
// and returns p, its slot emptied, if that was its last missing edge.
func (lt *liveTable) put(ds *delivState, sk uint64, pg *page, slot *atomic.Pointer[pendTile], p *pendTile, dep int, data []float64) *pendTile {
	p.Tile.edges[dep] = edge{dep: dep, data: data}
	if p.Tile.remaining.Add(-1) != 0 {
		return nil
	}
	slot.Store(nil)
	ds.entries--
	lt.drop(sk, pg)
	return p
}

// seed admits a tile with no producers (an initial tile, which no edge
// will ever announce) as queued. False means its slot is taken — a
// resumed rank's executed seed — and it must not be queued.
func (lt *liveTable) seed(p *pendTile) bool {
	if !lt.track {
		return true
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	slot := lt.slot(p.Tile.coord)
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
	lt.slot(p.Tile.coord).Store(executedTile)
	fold.merge(tile)
	lt.mu.Unlock()
}

// eachSlot calls f on every filled slot of a tracking table, mu held,
// with the slot's checkpoint key: slab key × rest.Len() + rest key.
func (lt *liveTable) eachSlot(f func(key uint64, slot *atomic.Pointer[pendTile], p *pendTile)) {
	n := lt.layout.rest.Len()
	for sk := range lt.pages {
		if pg := lt.pages[sk].Load(); pg != nil {
			for rk := range pg.slots {
				if p := pg.slots[rk].Load(); p != nil {
					f(uint64(sk)*n+uint64(rk), &pg.slots[rk], p)
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
			if p.Tile.remaining.Load() == 0 {
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
	n := lt.layout.rest.Len()
	for _, k := range keys {
		lt.page(k / n).slots[k%n].Store(executedTile)
	}
}

// executedPerSlab counts, for each of slabs, the slots holding
// executedTile: this rank's executed tiles in that slab.
func (lt *liveTable) executedPerSlab(slabs []balance.Slab) []int64 {
	counts := make([]int64, len(slabs))
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for i, s := range slabs {
		if pg := lt.pages[lt.layout.slab.OfLB(s.LB)].Load(); pg != nil {
			for rk := range pg.slots {
				if pg.slots[rk].Load() == executedTile {
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
func (l *pageLayout) checkRecords(recs []ckptTile, probe *tiling.TileProbe) error {
	for _, t := range recs {
		_, inSlab := l.slab.Of(t.tile)
		_, inRest := l.rest.Of(t.tile)
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
