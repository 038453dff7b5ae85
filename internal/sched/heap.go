package sched

import "sync/atomic"

// Priority selects the order in which ready tiles are executed
// (Section V-B, Figures 4 and 5). The choice does not affect results,
// only memory-buffering behaviour and parallelism.
type Priority int

const (
	// ColumnMajor is the paper's production policy (Figure 5): a
	// column-major order whose highest-priority dimensions are the
	// load-balancing dimensions, so tiles that cause communication
	// execute first and buffered-edge memory stays near n+1 edges.
	ColumnMajor Priority = iota
	// LevelSet executes by dependence level sets (Figure 4b): maximum
	// parallelism, but buffered-edge memory grows to about 2(n-1) edges
	// in 2-D and toward d times the column-major peak in d dimensions.
	LevelSet
	// FIFO executes tiles in the order they become ready; a baseline.
	FIFO
)

// String names the policy for logs and flag output.
func (p Priority) String() string {
	switch p {
	case ColumnMajor:
		return "column-major"
	case LevelSet:
		return "level-set"
	case FIFO:
		return "fifo"
	}
	return "unknown"
}

// Item is one schedulable tile: the header the scheduler orders by,
// and the runtime's own per-tile state. Where it queues is the pusher's
// choice (Pool.Push), not part of the item.
type Item[T any] struct {
	Key   []int64 // oriented Figure 5 priority key: the lexicographically smaller runs first
	Level int64   // wavefront level: the LevelSet order
	Seq   int64   // arrival order, assigned by Pool.Push: the FIFO order and every policy's tie-break
	// PK and RK are the tile's page and rest keys in its runtime's Table,
	// recorded when its entry is installed or seeded, so its consumers'
	// slots are found from them (Table.Consumer) without Key.Of.
	PK, RK uint64
	// Missing counts the dependence edges not yet delivered: Table.Arrive
	// counts it down, and the tile is ready at zero.
	Missing atomic.Int64
	Tile    T // the runtime's per-tile state
}

// Heap is a binary min-heap of ready items under one Priority. Seq makes
// the order total, so the pop sequence depends only on the pushes.
type Heap[T any] struct {
	Prio  Priority
	items []*Item[T]
}

// Len reports the number of queued items.
func (h *Heap[T]) Len() int { return len(h.items) }

// Less reports whether x runs before y.
func (h *Heap[T]) Less(x, y *Item[T]) bool {
	switch h.Prio {
	case FIFO:
		return x.Seq < y.Seq
	case LevelSet:
		if x.Level != y.Level {
			return x.Level < y.Level
		}
	}
	for k, v := range x.Key {
		if w := y.Key[k]; v != w {
			return v < w
		}
	}
	return x.Seq < y.Seq
}

// Push adds an item.
func (h *Heap[T]) Push(it *Item[T]) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.Less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// Pop removes and returns the first item in priority order; the heap
// must not be empty.
func (h *Heap[T]) Pop() *Item[T] {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = nil
	h.items = h.items[:last]
	h.down(0)
	return top
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h.Less(h.items[c+1], h.items[c]) {
			c++
		}
		if !h.Less(h.items[c], h.items[i]) {
			return
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
}

// removeIf drops every item drop reports, clearing the vacated tail,
// and restores the heap order.
func (h *Heap[T]) removeIf(drop func(*Item[T]) bool) (removed int) {
	kept := h.items[:0]
	for _, it := range h.items {
		if !drop(it) {
			kept = append(kept, it)
		}
	}
	removed = len(h.items) - len(kept)
	clear(h.items[len(kept):])
	h.items = kept
	if removed > 0 {
		for i := len(h.items)/2 - 1; i >= 0; i-- {
			h.down(i)
		}
	}
	return removed
}
