// Package balance implements the static load balancers of the paper:
//
//   - Prefix (Section IV-J): work — counted exactly per load-balancing
//     slab (tiling.Slabs), the value the paper's second Ehrhart
//     polynomial takes at the run's parameters — is accumulated over the
//     load-balancing cells in priority-lexicographic order and cut into
//     equal-work contiguous ranges, one per node. Cuts fall on lb1
//     boundaries and
//     are refined within a boundary slab by lb2 and so on, exactly the
//     "highest priority dimension cuts, lesser dimensions refine"
//     behaviour of Figure 2.
//
//   - Hyperplane (Section VII-B, Figure 8): cells are ordered by the
//     diagonal level sum(t_lb) before the lexicographic refinement, so
//     the cuts approximate hyperplanes that slice wedge-shaped spaces
//     more evenly and shorten the pipeline critical path.
//
// All tiles sharing load-balancing coordinates go to the same node, as in
// the paper (ownership is a function of the load-balancing indices only).
package balance

import (
	"fmt"
	"sort"

	"dpgen/internal/sched"
	"dpgen/internal/tiling"
)

// Method selects the partitioning strategy.
type Method int

const (
	// Prefix is the paper's production balancer (Section IV-J).
	Prefix Method = iota
	// Hyperplane is the paper's future-work balancer (Section VII-B).
	Hyperplane
)

func (m Method) String() string {
	switch m {
	case Prefix:
		return "prefix"
	case Hyperplane:
		return "hyperplane"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Slab is one load-balancing cell: the set of tiles sharing
// load-balancing coordinates, all owned by one node, with its counted
// iteration-space cells and tiles.
type Slab = tiling.Slab

// Assignment maps tiles to nodes for fixed parameter values.
type Assignment struct {
	Nodes  int
	Method Method
	// Work is the per-node total work (iteration-space cells). For an
	// assignment produced by Rebalance it counts only the work that was
	// unexecuted at the rebalance point.
	Work []int64
	// Tiles is the per-node owned-tile count (used by the runtime for
	// termination without a full tile-space scan). Remaining tiles only
	// for a Rebalance assignment.
	Tiles []int64
	// Total is the problem's total work, the paper's first Ehrhart
	// polynomial evaluated at the parameters.
	Total int64
	// Initial lists the tiles with no producer in the space (Section
	// IV-K), which the runtime seeds; the slab count finds them in the
	// same pass.
	Initial [][]int64

	// slabs holds the instance's counts for as long as the assignment
	// (and any Rebalance of it) lives, so nothing is ever counted twice.
	slabs     []Slab
	slabOwner []int
	key       *sched.Key
	index     map[uint64]int32 // LB key -> slab index
	// single: one member owns every slab (a one-rank run), so Owner
	// needs no slab lookup. Never set by Rebalance, whose executed slabs
	// keep their old owner labels.
	single bool
}

// Build computes the node assignment for the given tiling, parameter
// values and node count.
func Build(tl *tiling.Tiling, params []int64, nodes int, m Method) (*Assignment, error) {
	return BuildMembers(tl, params, nodes, nil, m, nil)
}

// BuildMembers computes an assignment over a world of `world` ranks in
// which only `members` (nil means all of 0..world-1) own tiles: the
// equal-work cuts are made among the members and mapped onto their rank
// numbers, so an elastic run can start with a subset of the mesh active
// and admit the rest later. Work and Tiles are indexed by rank over the
// full world. rows, when not nil, is the row plan the caller bound for
// params: counting the slabs fills its shape table (tiling.Slabs).
func BuildMembers(tl *tiling.Tiling, params []int64, world int, members []int, m Method, rows *tiling.RowPlan) (*Assignment, error) {
	if world < 1 {
		return nil, fmt.Errorf("balance: need at least 1 node, got %d", world)
	}
	if members == nil {
		members = make([]int, world)
		for i := range members {
			members[i] = i
		}
	}
	if len(members) < 1 {
		return nil, fmt.Errorf("balance: need at least 1 member")
	}
	for _, r := range members {
		if r < 0 || r >= world {
			return nil, fmt.Errorf("balance: member rank %d out of range [0,%d)", r, world)
		}
	}
	key, err := tl.NewLBKey(params)
	if err != nil {
		return nil, err
	}
	slabs, initial := tl.Slabs(params, key, rows)
	var total int64
	for _, s := range slabs {
		total += s.Work
	}
	if total == 0 {
		return nil, fmt.Errorf("balance: problem has no work for params %v", params)
	}

	if m == Hyperplane {
		// Order by diagonal level first, keeping lexicographic refinement
		// within a level. Slabs come in lexicographic order, so a stable
		// sort by level suffices.
		sort.SliceStable(slabs, func(i, j int) bool {
			return sum(slabs[i].LB) < sum(slabs[j].LB)
		})
	}

	a := &Assignment{
		Nodes:     world,
		Method:    m,
		Work:      make([]int64, world),
		Tiles:     make([]int64, world),
		Total:     total,
		Initial:   initial,
		slabs:     slabs,
		slabOwner: make([]int, len(slabs)),
		key:       key,
		index:     make(map[uint64]int32, len(slabs)),
		single:    len(members) == 1,
	}
	n := len(members)
	var cum int64
	for i, s := range slabs {
		// Assign by the midpoint of the slab's work interval so slabs
		// straddling a cut go to the member owning most of them.
		mid := cum + s.Work/2
		pos := int(mid * int64(n) / total)
		if pos >= n {
			pos = n - 1
		}
		node := members[pos]
		a.index[key.OfLB(s.LB)] = int32(i)
		a.slabOwner[i] = node
		a.Work[node] += s.Work
		a.Tiles[node] += s.Tiles
		cum += s.Work
	}
	return a, nil
}

// Owner returns the node owning the given tile (Vars-order tile index).
func (a *Assignment) Owner(t []int64) int {
	if a.single {
		return a.slabOwner[0]
	}
	i := a.SlabIndex(t)
	if i < 0 {
		// Tiles outside the load-balancing space should not exist; owning
		// them on node 0 keeps the runtime total-footed rather than
		// panicking deep inside a worker.
		return 0
	}
	return a.slabOwner[i]
}

// Slabs returns the load-balancing slabs in assignment order — the
// deterministic order Rebalance walks, identical on every rank.
func (a *Assignment) Slabs() []Slab { return a.slabs }

// SlabOwner returns the owner of slab i (an index into Slabs).
func (a *Assignment) SlabOwner(i int) int { return a.slabOwner[i] }

// SlabIndex returns the index into Slabs of the slab containing the
// given tile, or -1 if the tile is outside the load-balancing space.
func (a *Assignment) SlabIndex(t []int64) int {
	if k, ok := a.key.Of(t); ok {
		if i, ok := a.index[k]; ok {
			return int(i)
		}
	}
	return -1
}

// Layout places an instance's tiles in a pending table (sched.Table):
// the slab key picks a tile's page and the rest key its slot; slab key ×
// Rest.Len() + rest key names a tile in checkpoints. Expect holds, per
// slab key, the slab's tiles less its initial ones, which no edge
// announces: the entries its page completes on a plain run.
type Layout struct {
	Slab, Rest *sched.Key
	Expect     []int64
}

// NewLayout lays out the pending table of the instance a balances.
func NewLayout(tl *tiling.Tiling, params []int64, a *Assignment) (*Layout, error) {
	rest, err := tl.NewRestKey(params)
	if err != nil {
		return nil, err
	}
	if _, err = tl.NewTileKey(params); err != nil { // slab × rest keys must fit one word
		return nil, err
	}
	l := &Layout{Slab: a.key, Rest: rest, Expect: make([]int64, a.key.Len())}
	for _, s := range a.slabs {
		l.Expect[a.key.OfLB(s.LB)] = s.Tiles
	}
	for _, t := range a.Initial {
		k, _ := a.key.Of(t)
		l.Expect[k]--
	}
	return l, nil
}

// Imbalance returns max(Work)/mean(Work); 1.0 is perfect.
func (a *Assignment) Imbalance() float64 {
	var max int64
	for _, w := range a.Work {
		if w > max {
			max = w
		}
	}
	mean := float64(a.Total) / float64(a.Nodes)
	if mean == 0 {
		return 1
	}
	return float64(max) / mean
}

func sum(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}
