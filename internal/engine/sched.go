// Hybrid static/dynamic tile scheduling. The dynamic half is the
// paper's Section V model — per-tile dependence counting in a pending
// table — with the table striped by tile key so concurrent deliveries
// rarely share a lock. The static half removes even that: tiles whose
// whole dependence pattern is known at partition time (interior tiles
// with every producer on the same node) are laid out in wavefront-level
// order up front, and a single atomic counter per level replaces their
// pending-table entries. When the counter for the frontier level drains
// to zero the next level's tiles are released wholesale into the
// per-worker deques. Boundary tiles and tiles fed by remote edges keep
// full dynamic counting, and keep their column-major priority, so the
// Figure 5 communication-first ordering still governs everything that
// talks to other nodes. The ready pool and the
// wavefront release are dpgen/internal/sched, shared with generated
// programs; this file is the engine's side of it: which configurations
// get a static phase, and the classification scan that fills it.

package engine

import (
	"dpgen/internal/obs"
	"dpgen/internal/sched"
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
	for _, n := range nodeByRank {
		if n == nil {
			continue
		}
		if n.wf = sched.NewWavefront[tileState](lo, hi, e.cfg.Threads); n.wf == nil {
			return // no levels, or too many to count: all-dynamic
		}
		n.staticIdx = make(map[uint64]*pendTile)
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
		n.wf.Count(level)
		if !interior {
			return true
		}
		// Static iff the tile has producers (initial tiles are already
		// seeded) and every producer is owned by this node. Remote
		// edges can then never target it, so its edge slots have
		// exactly one local writer each. With a single node the
		// same-owner half is vacuous — only the producer count matters.
		// A core tile's producers all exist, unasked; the answer stays on
		// the tile for its sends.
		core := probe.Core(t)
		nprod := 0
		static := true
		for j := 0; j < ndeps; j++ {
			off := e.tl.TileDeps[j].Offset
			for k := 0; k < d; k++ {
				prod[k] = t[k] + off[k]
			}
			if !core && !probe.InSpace(prod) {
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
			Key:   e.tl.PriorityKey(t, nil),
			Level: level,
			Tile: tileState{
				coord: append([]int64(nil), t...),
				edges: make([]edge, ndeps),
				core:  core,
			},
		}
		n.wf.Add(p)
		n.staticIdx[e.tileKey(t)] = p
		return true
	})
	for _, n := range nodeByRank {
		if n != nil {
			n.release(n.wf.Advance(), n.initLane())
		}
	}
}

// release queues a wavefront level's static tiles (what Advance or
// Retire returned). lane is the caller's trace lane.
func (n *node) release(tiles []*pendTile, lane *obs.Lane) {
	for _, p := range tiles {
		n.enqueue(p, lane)
	}
}
