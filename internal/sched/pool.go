package sched

import (
	"sync"
	"sync/atomic"
)

// shard is one worker's slice of the ready pool.
type shard[T any] struct {
	mu   sync.Mutex
	heap Heap[T] // ready items, priority order
	// rng seeds the owning worker's victim-selection PRNG (xorshift).
	// Only the owner touches it, so it needs no lock.
	rng uint64
}

func xorshift64(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

// AtomicMax raises a to at least v.
func AtomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Pool is a node's ready queue: one shard per worker, each holding a
// priority heap of the tiles whose dependences have all arrived, so
// communication-causing tiles leave first (Figure 5). A worker pushes
// the tiles it readies onto its own shard and pops its own heap's best
// item; a thief scans the other shards from a random
// start and takes the first victim's best. An epoch/sleeper protocol
// parks workers when every shard is empty without losing wakeups.
type Pool[T any] struct {
	shards []shard[T]

	mu     sync.Mutex // guards closed; parked workers wait on cond
	cond   sync.Cond
	closed bool

	epoch    atomic.Uint64 // bumped by every Push
	sleepers atomic.Int32  // workers committed to waiting on cond
	qlen     atomic.Int64  // queued items across shards
	seq      atomic.Int64  // last Item.Seq handed out

	steals, localPops, peak atomic.Int64
}

// NewPool builds the pool for a node of the given worker count (at
// least one shard).
func NewPool[T any](workers int, prio Priority) *Pool[T] {
	if workers < 1 {
		workers = 1
	}
	p := &Pool[T]{shards: make([]shard[T], workers)}
	p.cond.L = &p.mu
	for i := range p.shards {
		p.shards[i].heap.Prio = prio
		p.shards[i].rng = uint64(i+1) * 0x9E3779B97F4A7C15
	}
	return p
}

// Push makes an item runnable on worker w's shard — a worker pushes the
// tiles it readies onto its own — or, for a caller that is not a worker
// (w < 0), on a shard hashed (FNV-1a) from its Key, and wakes a parked
// worker if there is one. The epoch bump is what makes the wakeup
// race-free: a worker only commits to parking if the epoch it read
// before its (empty) scan is still current, so either it sees this
// push's epoch change and rescans, or its registration in sleepers is
// visible here and the signal lands.
func (p *Pool[T]) Push(it *Item[T], w int) {
	if w < 0 {
		h := uint64(14695981039346656037)
		for _, v := range it.Key {
			h = (h ^ uint64(v)) * 1099511628211
		}
		w = int(h % uint64(len(p.shards)))
	}
	it.Seq = p.seq.Add(1)
	s := &p.shards[w]
	s.mu.Lock()
	s.heap.Push(it)
	s.mu.Unlock()
	AtomicMax(&p.peak, p.qlen.Add(1))
	p.epoch.Add(1)
	if p.sleepers.Load() > 0 {
		p.mu.Lock()
		p.cond.Signal()
		p.mu.Unlock()
	}
}

// take removes shard s's best item, or returns nil when it is empty.
func (s *shard[T]) take() (it *Item[T]) {
	s.mu.Lock()
	if s.heap.Len() > 0 {
		it = s.heap.Pop()
	}
	s.mu.Unlock()
	return it
}

// Pop claims an item for worker w: its own shard first, then, if the
// pool-wide count says there is anything to take, the other shards in a
// randomized rotation. Reports whether the item was stolen; nil when
// nothing was claimable.
func (p *Pool[T]) Pop(w int) (it *Item[T], stolen bool) {
	s := &p.shards[w]
	if it = s.take(); it != nil {
		p.qlen.Add(-1)
		p.localPops.Add(1)
		return it, false
	}
	ns := len(p.shards)
	if ns == 1 || p.qlen.Load() == 0 {
		return nil, false
	}
	start := int(xorshift64(&s.rng) % uint64(ns-1))
	for i := 0; i < ns-1; i++ {
		if it = p.shards[(w+1+(start+i)%(ns-1))%ns].take(); it != nil {
			p.qlen.Add(-1)
			p.steals.Add(1)
			return it, true
		}
	}
	return nil, false
}

// Epoch returns the push epoch. A worker reads it before a Pop scan and
// hands it to Park if the scan came back empty.
func (p *Pool[T]) Epoch() uint64 { return p.epoch.Load() }

// Park blocks a worker whose scan since epoch e0 found nothing, until a
// Push, Wake or Close. It returns at once, without sleeping, when a Push
// landed after e0 or the pool is closed. open is false once the pool is
// closed: the worker should exit.
func (p *Pool[T]) Park(e0 uint64) (slept, open bool) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false, false
	}
	p.sleepers.Add(1)
	if p.epoch.Load() != e0 {
		// A Push landed after the empty scan; rescan.
		p.sleepers.Add(-1)
		p.mu.Unlock()
		return false, true
	}
	p.cond.Wait()
	p.sleepers.Add(-1)
	p.mu.Unlock()
	return true, true
}

// Wake makes every parked worker rescan.
func (p *Pool[T]) Wake() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Close wakes every parked worker and makes Park report closed from now
// on. Items still queued stay poppable.
func (p *Pool[T]) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Len reports the number of queued items across shards.
func (p *Pool[T]) Len() int64 { return p.qlen.Load() }

// Counts reports the items taken from another worker's shard, the items
// popped from the worker's own, and the peak of Len.
func (p *Pool[T]) Counts() (steals, localPops, peak int64) {
	return p.steals.Load(), p.localPops.Load(), p.peak.Load()
}

// RemoveIf unqueues every item drop reports (an elastic view change
// purging tiles that migrated away) and returns how many it removed.
func (p *Pool[T]) RemoveIf(drop func(*Item[T]) bool) int64 {
	var removed int64
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		removed += int64(s.heap.removeIf(drop))
		s.mu.Unlock()
	}
	p.qlen.Add(-removed)
	return removed
}
