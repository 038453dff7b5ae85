// Prepared-program reuse: the front half of a run — the static load
// balance and the initial tiles its one pass over the tile space finds,
// both pure functions of (tiling, params, nodes, balance method) —
// computed once and replayed across runs. This is the engine-side entry
// point behind the dpserve compiled-spec cache (dpgen/internal/serve):
// the expensive polyhedral analysis lives in tiling.New, the
// per-(params, nodes) remainder lives here, and a repeat query pays for
// neither.

package engine

import (
	"fmt"
	"slices"
	"time"

	"dpgen/internal/balance"
	"dpgen/internal/tiling"
)

// Prepared is the reusable front half of a run for one fixed
// (tiling, params, nodes, members, balance method) tuple: the
// load-balance assignment, the initial-tile set, the bound row plan,
// the pending table's layout and the dependence geometry.
// It is immutable after Prepare and safe to share across concurrent Run
// calls — the same guarantee the tiling analysis itself gives. Every
// run executes from one: Run builds its own, Prepared.Run reuses this.
type Prepared struct {
	tl      *tiling.Tiling
	params  []int64
	nodes   int
	members []int // sorted ranks the balance gave tiles to
	method  balance.Method
	// assign carries the owned-tile totals and the initial tiles too.
	assign *balance.Assignment
	rows   *tiling.RowPlan
	layout *balance.Layout
	// The dependence geometry at these parameters: the template base
	// offsets and range steps (variable-distance templates make them
	// parameter-dependent), and per tile dependence whether its offset is
	// zero on every load-balancing dimension — so a tile and its consumer
	// along it share a slab, and an owner, under any assignment.
	depLocOff []int64
	depStride []int64
	sameSlab  []bool
	// goalTile holds the goal cell, at goalLocal within it.
	goalTile, goalLocal []int64
	// balanceTime is the row binding and the load balance (Section IV-J)
	// with the shape table and the initial tiles (Section IV-K) its pass
	// finds.
	balanceTime time.Duration
}

// Prepare computes the reusable front half of a run: the static load
// balance (Section IV-J) and the initial tiles (Section IV-K) for
// the given parameter values, node count (minimum 1) and balance
// method, with every node a member. The result can back any number of
// concurrent Run calls whose Config agrees on nodes and balance method.
func Prepare(tl *tiling.Tiling, params []int64, nodes int, method balance.Method) (*Prepared, error) {
	if tl == nil {
		return nil, fmt.Errorf("engine: Prepare with nil tiling")
	}
	if nodes < 1 {
		nodes = 1
	}
	if len(params) != len(tl.Spec.Params) {
		return nil, fmt.Errorf("engine: got %d params, spec has %d", len(params), len(tl.Spec.Params))
	}
	members, _ := normalizeMembers(nil, nodes)
	return prepare(tl, params, nodes, members, method)
}

// prepare is Prepare over an explicit, normalized member set. The one
// row plan it binds is the one the balance's slab count walks: that pass
// fills the plan's shape table, which every run then replays.
func prepare(tl *tiling.Tiling, params []int64, nodes int, members []int, method balance.Method) (*Prepared, error) {
	start := time.Now()
	rows := tl.BindRows(params)
	assign, err := balance.BuildMembers(tl, params, nodes, members, method, rows)
	if err != nil {
		return nil, err
	}
	layout, err := balance.NewLayout(tl, params, assign)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	p := &Prepared{
		tl:        tl,
		params:    append([]int64(nil), params...),
		nodes:     nodes,
		members:   members,
		method:    method,
		assign:    assign,
		rows:      rows,
		layout:    layout,
		depLocOff: tl.DepLocOffAt(params),
		depStride: tl.DepStrideAt(params),
		sameSlab:  make([]bool, len(tl.TileDeps)),
	}
	lb := tl.LBIndices()
	for j, dep := range tl.TileDeps {
		p.sameSlab[j] = !slices.ContainsFunc(lb, func(k int) bool { return dep.Offset[k] != 0 })
	}
	p.goalTile, p.goalLocal = tl.GoalTile()
	p.balanceTime = time.Since(start)
	return p, nil
}

// Run executes the prepared problem with the given kernel. cfg.Nodes
// (or cfg.Transport's size, in distributed mode), cfg.Balance and — for
// an elastic run — the initial member set must match what the program
// was prepared for; everything else — threads, priority,
// buffers, tracing, checkpointing — is free to vary per run. Results
// are bit-identical to an unprepared engine.Run with the same
// configuration.
func (p *Prepared) Run(kernel Kernel, cfg Config) (*Result, error) {
	start := time.Now()
	cfg, members, err := resolve(p.tl, kernel, p.params, cfg)
	if err != nil {
		return nil, err
	}
	if err := p.check(cfg, members); err != nil {
		return nil, err
	}
	return run(p, kernel, cfg, start)
}

// Tiling returns the analysis the program was prepared from.
func (p *Prepared) Tiling() *tiling.Tiling { return p.tl }

// Params returns a copy of the prepared parameter values.
func (p *Prepared) Params() []int64 { return append([]int64(nil), p.params...) }

// Nodes returns the node count the program was prepared for.
func (p *Prepared) Nodes() int { return p.nodes }

// Work returns the balancer's per-node work assignment (iteration-space
// cells per node), for capacity planning and diagnostics.
func (p *Prepared) Work() []int64 { return append([]int64(nil), p.assign.Work...) }

// check validates a resolved run (see resolve) against the prepared
// state.
func (p *Prepared) check(cfg Config, members []int) error {
	if cfg.Nodes != p.nodes {
		return fmt.Errorf("engine: program prepared for %d nodes, config wants %d", p.nodes, cfg.Nodes)
	}
	if cfg.Balance != p.method {
		return fmt.Errorf("engine: program prepared with balance method %v, config wants %v", p.method, cfg.Balance)
	}
	if !slices.Equal(members, p.members) {
		return fmt.Errorf("engine: program prepared for members %v, config wants %v", p.members, members)
	}
	return nil
}
