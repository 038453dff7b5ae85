package sched

import (
	"sync"
	"sync/atomic"
)

// MaxLevels bounds a Wavefront's per-level arrays; a level range beyond
// it (degenerate chain-shaped tile spaces) gets no static phase rather
// than a huge allocation.
const MaxLevels = 1 << 22

// Wavefront is a node's static phase: tiles whose whole dependence
// pattern is known at partition time wait here in wavefront-level
// order, and one atomic counter per level replaces their pending-table
// entries. A static tile's producers all sit at strictly lower levels
// on the same node, so once every level below the frontier has retired,
// the frontier level's static tiles are safe to run and are released
// wholesale. Filled by Count and Add before any worker starts; after
// that remain is atomic and the rest is guarded by mu.
type Wavefront[T any] struct {
	minLevel int64
	workers  int
	// remain[l] counts the node's not-yet-retired tiles at level
	// minLevel+l: every owned tile, static or dynamic, because a static
	// tile at level L may consume edges from a dynamic (boundary) tile
	// at any lower level.
	remain []atomic.Int64
	// levels[l] holds the static items of level minLevel+l in insertion
	// order, awaiting release.
	levels [][]*Item[T]
	static int64

	mu       sync.Mutex
	frontier int // next unreleased level index (at most len(levels))
	rr       int // round-robin shard cursor for released items
}

// NewWavefront sizes the static phase for tile levels lo..hi on a node
// of the given worker count. It returns nil, meaning every tile is
// scheduled dynamically, when the range is empty or exceeds MaxLevels.
func NewWavefront[T any](lo, hi int64, workers int) *Wavefront[T] {
	if hi < lo || hi-lo >= MaxLevels {
		return nil
	}
	n := int(hi - lo + 1)
	return &Wavefront[T]{
		minLevel: lo,
		workers:  workers,
		remain:   make([]atomic.Int64, n),
		levels:   make([][]*Item[T], n),
	}
}

// Count records one owned tile at the given level, static or not.
func (wf *Wavefront[T]) Count(level int64) { wf.remain[level-wf.minLevel].Add(1) }

// Add files a static item under it.Level, in addition to its Count.
func (wf *Wavefront[T]) Add(it *Item[T]) {
	it.Static = true
	li := it.Level - wf.minLevel
	wf.levels[li] = append(wf.levels[li], it)
	wf.static++
}

// Static reports how many items were added.
func (wf *Wavefront[T]) Static() int64 { return wf.static }

// Advance moves the frontier past every drained level and returns the
// static items of the level it stops at, assigned round-robin to the
// workers' shards, for the caller to push. At most one level's items
// come back: the frontier only passes a level whose counter is zero,
// and a level with unreleased static items still counts them. Any
// goroutine whose Retire zeroes a counter lands here; frontier movement
// is serialized by mu, and only the zeroing of the frontier level can
// unblock it, so no release is missed, and a released level is nilled,
// so a re-entrant call releases nothing twice.
func (wf *Wavefront[T]) Advance() []*Item[T] {
	wf.mu.Lock()
	defer wf.mu.Unlock()
	for wf.frontier < len(wf.remain) {
		if released := wf.levels[wf.frontier]; released != nil {
			wf.levels[wf.frontier] = nil
			for _, it := range released {
				it.Shard = wf.rr % wf.workers
				wf.rr++
			}
			return released
		}
		if wf.remain[wf.frontier].Load() != 0 {
			break
		}
		wf.frontier++
	}
	return nil
}

// Retire takes an executed tile, static or not, off its level counter
// and returns the items a drained frontier releases. The caller must
// have delivered the tile's outgoing edges first: a released consumer's
// edge slots are complete only once every lower-level producer has
// delivered.
func (wf *Wavefront[T]) Retire(level int64) []*Item[T] {
	if wf.remain[level-wf.minLevel].Add(-1) == 0 {
		return wf.Advance()
	}
	return nil
}
