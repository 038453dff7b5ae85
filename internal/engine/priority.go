package engine

import "container/heap"

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

// tileHeap orders ready tiles by the configured priority.
type tileHeap struct {
	items []*pendTile
	prio  Priority
}

func (h *tileHeap) Len() int { return len(h.items) }

func (h *tileHeap) Less(a, b int) bool {
	x, y := h.items[a], h.items[b]
	switch h.prio {
	case FIFO:
		return x.seq < y.seq
	case LevelSet:
		if x.level != y.level {
			return x.level < y.level
		}
	}
	for k := range x.key {
		if x.key[k] != y.key[k] {
			return x.key[k] < y.key[k]
		}
	}
	return x.seq < y.seq
}

func (h *tileHeap) Swap(a, b int) {
	h.items[a], h.items[b] = h.items[b], h.items[a]
	h.items[a].index = a
	h.items[b].index = b
}

func (h *tileHeap) Push(v any) {
	p := v.(*pendTile)
	p.index = len(h.items)
	h.items = append(h.items, p)
}

func (h *tileHeap) Pop() any {
	old := h.items
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	h.items = old[:n-1]
	return p
}

func (h *tileHeap) push(p *pendTile) { heap.Push(h, p) }
func (h *tileHeap) pop() *pendTile   { return heap.Pop(h).(*pendTile) }

// makeKey arranges and orients a tile's coordinates so that
// lexicographically smaller keys execute first: load-balancing
// dimensions first (priority order), then the remaining dimensions in
// loop order. Components are oriented so that tiles *further along* the
// execution direction sort first — those are the tiles whose edges feed
// neighbouring nodes ("tiles that cause communication execute more
// quickly", Section V-B), which keeps the cross-node pipeline fed.
func (e *engine) makeKey(tile []int64, dst []int64) []int64 {
	if dst == nil {
		dst = make([]int64, len(e.keyDims))
	}
	for i, k := range e.keyDims {
		if e.tl.ExecDirs[k] < 0 {
			// Execution descends: smaller t is more advanced.
			dst[i] = tile[k]
		} else {
			dst[i] = -tile[k]
		}
	}
	return dst
}
