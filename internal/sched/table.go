package sched

import (
	"sync"
	"sync/atomic"
)

// Table is a node's pending-tile table (Section V-B): each tile's entry
// from its first delivered edge to its last, in a page of slots per page
// key in flight, the slot found by the rest key. A producer's consumer
// along a tile dependence has keys a constant step below the producer's
// (Key.Delta), so a runtime that records a tile's keys on its item
// finds every consumer's slot by subtraction. Delivery takes no lock:
// the first installs the caller's entry (Install), each files its edge
// and counts Missing down (Arrive), and the arrival that reaches zero,
// ordered after every other, empties the slot. A page whose expected
// entries have all completed is recycled. A runtime that keeps its own
// slot states under its own lock never calls Arrive, so its pages stay.
type Table[T any] struct {
	PageKey, RestKey *Key
	expect           []int64  // per page key, the entries its page completes
	dpk, drk         []uint64 // per tile dependence, the page- and rest-key step to the consumer
	pages            []atomic.Pointer[Page[T]]

	// mu guards the free list and the count of pages allocated, the most
	// ever live at once: one is allocated only when none is free.
	mu        sync.Mutex
	free      *Page[T]
	allocated int
}

// Page is one page key's entry slots, indexed by rest key.
type Page[T any] struct {
	Slots []atomic.Pointer[Item[T]]
	key   uint64
	left  atomic.Int64 // entries still to complete
	next  *Page[T]     // free list
}

// NewTable builds an empty table whose page for page key k completes
// expect[k] entries before it is recycled. offsets are the tile
// dependences' producer offsets: consumer = producer − offsets[j].
func NewTable[T any](pageKey, restKey *Key, expect []int64, offsets [][]int64) *Table[T] {
	t := &Table[T]{PageKey: pageKey, RestKey: restKey, expect: expect,
		dpk: make([]uint64, len(offsets)), drk: make([]uint64, len(offsets)),
		pages: make([]atomic.Pointer[Page[T]], pageKey.Len())}
	for j, off := range offsets {
		t.dpk[j], t.drk[j] = pageKey.Delta(off), restKey.Delta(off)
	}
	return t
}

// Keys returns the page and rest keys of a tile inside both keys'
// boxes.
func (t *Table[T]) Keys(tile []int64) (pk, rk uint64) {
	pk, _ = t.PageKey.Of(tile)
	rk, _ = t.RestKey.Of(tile)
	return pk, rk
}

// Consumer returns the keys of p's consumer along tile dependence dep,
// the tile p's coordinates − offsets[dep], from the keys recorded on p.
// The consumer must exist.
func (t *Table[T]) Consumer(p *Item[T], dep int) (pk, rk uint64) {
	return p.PK - t.dpk[dep], p.RK - t.drk[dep]
}

// Lookup returns the page and slot at page key pk and rest key rk,
// taking the page if its key has none.
func (t *Table[T]) Lookup(pk, rk uint64) (*Page[T], *atomic.Pointer[Item[T]]) {
	pg := t.Take(pk)
	return pg, &pg.Slots[rk]
}

// Take returns page key pk's page, taking one — off the free list when
// one is there — if the key has none.
func (t *Table[T]) Take(pk uint64) *Page[T] {
	if pg := t.pages[pk].Load(); pg != nil {
		return pg
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pg := t.pages[pk].Load()
	if pg != nil {
		return pg
	}
	if pg = t.free; pg != nil {
		t.free, pg.next = pg.next, nil
	} else {
		pg = &Page[T]{Slots: make([]atomic.Pointer[Item[T]], t.RestKey.Len())}
		t.allocated++
	}
	pg.key = pk
	pg.left.Store(t.expect[pk])
	t.pages[pk].Store(pg)
	return pg
}

// Loaded returns page key pk's page, or nil when it has none.
func (t *Table[T]) Loaded(pk uint64) *Page[T] { return t.pages[pk].Load() }

// Allocated reports the pages allocated, the most ever held at once,
// once deliveries have stopped.
func (t *Table[T]) Allocated() int { return t.allocated }

// Install returns the entry in slot, putting fresh there by
// compare-and-swap when it is empty, and whether fresh went in; when it
// did not, the caller still owns fresh.
func (t *Table[T]) Install(slot *atomic.Pointer[Item[T]], fresh *Item[T]) (*Item[T], bool) {
	if slot.CompareAndSwap(nil, fresh) {
		return fresh, true
	}
	return slot.Load(), false
}

// Arrive counts one edge of entry p, in slot of page pg, and reports
// whether it was the last missing one; the caller files the edge in p
// first. The last arrival empties the slot and counts p out of its
// page: each edge arrives once, so the page's deliverers are done with
// it when its last expected entry completes.
func (t *Table[T]) Arrive(pg *Page[T], slot *atomic.Pointer[Item[T]], p *Item[T]) bool {
	if p.Missing.Add(-1) != 0 {
		return false
	}
	slot.Store(nil)
	if pg.left.Add(-1) == 0 {
		t.mu.Lock()
		t.pages[pg.key].Store(nil)
		pg.next, t.free = t.free, pg
		t.mu.Unlock()
	}
	return true
}

// Bufs is a worker's LIFO free stack of edge buffers: what a tile
// unpacked it next packs into, so the buffers cycle on their worker.
// Any buffer it keeps serves any edge; a nil one keeps nothing.
type Bufs[E any] struct {
	free [][]E
	size int
}

// NewBufs returns an empty stack of at most n buffers of at least size
// elements.
func NewBufs[E any](n, size int) Bufs[E] { return Bufs[E]{free: make([][]E, 0, n), size: size} }

// Size is the capacity every buffer the stack keeps has at least.
func (b *Bufs[E]) Size() int { return b.size }

// Get pops a buffer resliced to length n <= Size, contents unspecified,
// or reports false when the stack is empty.
func (b *Bufs[E]) Get(n int) ([]E, bool) {
	l := len(b.free) - 1
	if l < 0 {
		return nil, false
	}
	s := b.free[l]
	b.free[l] = nil
	b.free = b.free[:l]
	return s[:n], true
}

// Put pushes s, or reports false, leaving s to the caller, when the
// stack is full or s is smaller than Size.
func (b *Bufs[E]) Put(s []E) bool {
	if b == nil || len(b.free) == cap(b.free) || cap(s) < b.size {
		return false
	}
	b.free = append(b.free, s)
	return true
}
