// Hybrid static/dynamic tile scheduling. The dynamic half is the
// paper's Section V model — per-tile dependence counting in a pending
// table — with the table striped by tile key so concurrent deliveries
// rarely share a lock. The static half removes even that: tiles whose
// whole dependence pattern is known at partition time (interior tiles
// with every producer on the same node) are laid out in wavefront-level
// order up front, and a single atomic counter per level replaces their
// pending-table entries. When the counter for the frontier level drains
// to zero the next level's tiles are released wholesale into the
// per-worker deques of steal.go. Boundary tiles and tiles fed by remote
// edges keep full dynamic counting, and keep their column-major
// priority, so the Figure 5 communication-first ordering still governs
// everything that talks to other nodes.

package engine

import (
	"sync"
	"sync/atomic"

	"dpgen/internal/obs"
)

// Sched selects the engine's tile scheduler (Config.Sched).
type Sched int

const (
	// SchedHybrid (the default) classifies tiles at partition time:
	// interior tiles whose producers are all node-local execute in a
	// precomputed wavefront order gated by one atomic counter per
	// level, while boundary and remote-fed tiles go through dynamic
	// dependence counting. Falls back to pure-dynamic scheduling when
	// the fast path is disabled, fault tolerance is on (a resumed
	// rank's frontier invalidates the precomputed order), or each node
	// runs a single worker (no synchronization to remove).
	SchedHybrid Sched = iota
	// SchedDynamic forces every tile through dynamic dependence
	// counting in the striped pending table. Results are bit-identical
	// with SchedHybrid; the knob exists for verification and for
	// measuring what the static phase buys.
	SchedDynamic
)

// String names the scheduler for logs and flag output.
func (s Sched) String() string {
	switch s {
	case SchedHybrid:
		return "hybrid"
	case SchedDynamic:
		return "dynamic"
	}
	return "unknown"
}

// maxStaticLevels bounds the per-level counter array; a level range
// beyond it (degenerate chain-shaped tile spaces) just skips the static
// phase rather than allocating a huge array.
const maxStaticLevels = 1 << 22

// nodeSched is a node's static-phase state: the wavefront-ordered
// interior tiles and the per-level release counters. Built once before
// workers launch; idx and levels are read-only afterwards, remain is
// atomic, and frontier/rr are guarded by fmu.
type nodeSched struct {
	minLevel int64
	// remain[l] counts the node's not-yet-executed owned tiles at level
	// minLevel+l — every owned tile, static or dynamic, because a static
	// tile at level L may consume edges from a dynamic (boundary) tile
	// at any lower level.
	remain []atomic.Int64
	// levels[l] holds the static tiles of level minLevel+l in priority
	// order, awaiting release.
	levels [][]*pendTile
	// idx maps a static tile's integer key to its entry, so deliver can
	// write producer edges straight into their slot with no lock: each
	// slot has exactly one producer, and the frontier can only release
	// the tile after that producer finished.
	idx map[uint64]*pendTile

	staticTotal int64

	fmu      sync.Mutex
	frontier int // next unreleased level index (≤ len(levels))
	rr       int // round-robin shard cursor for released tiles
}

// staticEnabled reports whether the configuration admits a static
// phase. Fault tolerance disables it because a resumed rank re-executes
// only part of each level, and DisableFastPath disables it because the
// classification is exactly the interior-tile fast path's. Elastic
// membership disables it because ownership — the basis of the
// classification — is no longer fixed at partition time. A single
// worker per node disables it too: the phase exists to remove per-tile
// synchronization between workers, and with one worker there is none —
// only the classification scan's cost would remain (measurable on
// scan-heavy cases like lcs2@paper, ~4k tiles).
func (e *engine) staticEnabled() bool {
	return e.cfg.Sched == SchedHybrid && e.cfg.Threads > 1 &&
		!e.cfg.DisableFastPath && e.cfg.Checkpoint.Dir == "" &&
		!e.cfg.Elastic.Enabled
}

// buildStatic runs the partition-time classification scan for every
// local node: one pass over the tile space accumulates the per-level
// owned-tile counters, and interior tiles whose producers all live on
// the same node become static entries in wavefront order. Runs on the
// seeding goroutine before workers start; releases any leading levels
// (nodes whose lowest levels hold no owned tiles) at the end.
func (e *engine) buildStatic(nodeByRank []*node) {
	if !e.staticEnabled() {
		return
	}
	lo, hi := e.tl.TileLevelBounds(e.params)
	if hi < lo || hi-lo+1 > maxStaticLevels {
		return
	}
	nlv := int(hi - lo + 1)
	for _, n := range nodeByRank {
		if n != nil {
			n.sd = &nodeSched{
				minLevel: lo,
				remain:   make([]atomic.Int64, nlv),
				levels:   make([][]*pendTile, nlv),
				idx:      make(map[uint64]*pendTile),
			}
		}
	}
	d := len(e.tl.Spec.Vars)
	ndeps := len(e.tl.TileDeps)
	probe := e.tl.NewProbe(e.params)
	prod := make([]int64, d)
	single := e.cfg.Nodes == 1
	assign := e.owners.Load() // fixed for the run: the static phase excludes elastic membership
	e.tl.ForEachTileLevel(e.params, func(t []int64, level int64, interior bool) bool {
		owner := 0
		if !single {
			owner = assign.Owner(t)
		}
		n := nodeByRank[owner]
		if n == nil {
			return true
		}
		sd := n.sd
		li := int(level - lo)
		sd.remain[li].Add(1)
		if !interior {
			return true
		}
		// Static iff the tile has producers (initial tiles are already
		// seeded) and every producer is owned by this node. Remote
		// edges can then never target it, so its edge slots have
		// exactly one local writer each. With a single node the
		// same-owner half is vacuous — only the producer count matters.
		nprod := 0
		static := true
		for j := 0; j < ndeps; j++ {
			off := e.tl.TileDeps[j].Offset
			for k := 0; k < d; k++ {
				prod[k] = t[k] + off[k]
			}
			if !probe.InSpace(prod) {
				continue
			}
			nprod++
			if !single && assign.Owner(prod) != owner {
				static = false
				break
			}
		}
		if !static || nprod == 0 {
			return true
		}
		p := &pendTile{
			tile:   append([]int64(nil), t...),
			key:    make([]int64, len(e.keyDims)),
			edges:  make([]edge, ndeps),
			level:  level,
			static: true,
		}
		e.makeKey(p.tile, p.key)
		sd.levels[li] = append(sd.levels[li], p)
		sd.idx[e.intKey(t)] = p
		sd.staticTotal++
		return true
	})
	for _, n := range nodeByRank {
		if n != nil {
			n.sd.advance(n, n.initLane())
		}
	}
}

// advance releases every fully unblocked level. A static tile's
// producers all sit at strictly lower levels on the same node, so once
// every level below f has retired, level f's static tiles are safe to
// run: advance releases the frontier level's tiles round-robin into the
// worker deques, then moves the frontier past each level whose
// owned-tile counter has drained. Any goroutine whose decrement zeroes
// a counter calls advance; frontier movement is serialized by fmu, and
// only the zeroing of the *frontier* level can unblock it, so no
// release is ever missed (a released level is nilled, making re-entry
// idempotent). lane is the caller's trace lane.
func (sd *nodeSched) advance(n *node, lane *obs.Lane) {
	sd.fmu.Lock()
	for sd.frontier < len(sd.remain) {
		for _, p := range sd.levels[sd.frontier] {
			p.seq = n.seqA.Add(1)
			p.group = sd.rr % len(n.shards)
			sd.rr++
			n.enqueue(p, lane)
		}
		sd.levels[sd.frontier] = nil
		if sd.remain[sd.frontier].Load() != 0 {
			break
		}
		sd.frontier++
	}
	sd.fmu.Unlock()
}

// tileRetired is execTile's scheduler epilogue: the executed tile comes
// off its level counter, and a drained frontier level releases the next
// wavefront. No-op on nodes without a static phase.
func (n *node) tileRetired(p *pendTile, lane *obs.Lane) {
	sd := n.sd
	if sd == nil {
		return
	}
	if sd.remain[p.level-sd.minLevel].Add(-1) == 0 {
		sd.advance(n, lane)
	}
}
