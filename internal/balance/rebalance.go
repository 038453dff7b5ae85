package balance

import "fmt"

// MoveStats reports how much ownership a Rebalance shifted: slabs whose
// owner changed, and the unexecuted tiles and work they carry (the
// migration volume the engine must ship).
type MoveStats struct {
	MovedSlabs int64
	MovedTiles int64
	MovedWork  int64
}

// Rebalance re-runs the Ehrhart-weighted assignment over only the
// *unexecuted* remainder of each slab for a new member set, keeping
// every slab with its previous owner when that owner is still a member
// and not overloaded — minimizing moved tiles while bounding imbalance.
// executed[i] is the global count of already-executed tiles of slab i
// (prev.Slabs() order); it must be identical on every rank, which is
// why the elastic protocol's EPOCH message carries a merged census.
//
// The result is fully deterministic in its inputs: every rank computes
// the same new assignment locally, so no ownership table ever crosses
// the wire. Work and Tiles of the returned assignment count only the
// remaining (unexecuted) load; Total and Initial are inherited from prev.
//
// The algorithm is three passes over the slabs in assignment order:
// fully-executed slabs keep their owner (nothing left to move); then
// slabs whose previous owner is a member keep it while that member's
// remaining load stays under cap = ceil(totalRemaining/len(members));
// the rest go to the least-loaded member, lowest rank on ties.
func Rebalance(prev *Assignment, members []int, executed []int64) (*Assignment, MoveStats, error) {
	var mv MoveStats
	if len(members) < 1 {
		return nil, mv, fmt.Errorf("balance: rebalance needs at least 1 member")
	}
	if len(executed) != len(prev.slabs) {
		return nil, mv, fmt.Errorf("balance: census has %d slabs, assignment has %d", len(executed), len(prev.slabs))
	}
	isMember := make(map[int]bool, len(members))
	for _, r := range members {
		if r < 0 || r >= prev.Nodes {
			return nil, mv, fmt.Errorf("balance: member rank %d out of range [0,%d)", r, prev.Nodes)
		}
		isMember[r] = true
	}

	// Remaining work per slab, estimated as Work scaled by the fraction
	// of unexecuted tiles (Ehrhart counts are per-slab, not per-tile).
	rem := make([]int64, len(prev.slabs))
	var totalRem int64
	for i, s := range prev.slabs {
		left := s.Tiles - executed[i]
		if left < 0 {
			return nil, mv, fmt.Errorf("balance: slab %d census %d exceeds its %d tiles", i, executed[i], s.Tiles)
		}
		if left > 0 {
			rem[i] = s.Work * left / s.Tiles
			if rem[i] == 0 {
				rem[i] = 1 // never let a live slab weigh nothing
			}
		}
		totalRem += rem[i]
	}

	a := &Assignment{
		Nodes:     prev.Nodes,
		Method:    prev.Method,
		Work:      make([]int64, prev.Nodes),
		Tiles:     make([]int64, prev.Nodes),
		Total:     prev.Total,
		Initial:   prev.Initial,
		slabs:     prev.slabs,
		slabOwner: make([]int, len(prev.slabs)),
		key:       prev.key,
		index:     prev.index,
	}
	capLoad := (totalRem + int64(len(members)) - 1) / int64(len(members))
	load := make(map[int]int64, len(members))
	var deferred []int
	for i := range prev.slabs {
		owner := prev.slabOwner[i]
		if rem[i] == 0 {
			// Fully executed: keep the owner label for determinism; it
			// carries no load and nothing will migrate.
			a.slabOwner[i] = owner
			continue
		}
		if isMember[owner] && load[owner]+rem[i] <= capLoad {
			a.slabOwner[i] = owner
			load[owner] += rem[i]
			continue
		}
		deferred = append(deferred, i)
	}
	for _, i := range deferred {
		best, bestLoad := -1, int64(0)
		for _, r := range members {
			if best == -1 || load[r] < bestLoad || (load[r] == bestLoad && r < best) {
				best, bestLoad = r, load[r]
			}
		}
		a.slabOwner[i] = best
		load[best] += rem[i]
		if best != prev.slabOwner[i] {
			mv.MovedSlabs++
			mv.MovedTiles += prev.slabs[i].Tiles - executed[i]
			mv.MovedWork += rem[i]
		}
	}
	for i, s := range prev.slabs {
		if left := s.Tiles - executed[i]; left > 0 {
			a.Work[a.slabOwner[i]] += rem[i]
			a.Tiles[a.slabOwner[i]] += left
		}
	}
	return a, mv, nil
}
