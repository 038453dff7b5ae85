// Package engine is the hybrid runtime of the generated programs
// (Section V of the paper), with goroutine worker pools standing in for
// OpenMP threads and dpgen/internal/mpi standing in for MPI ranks.
//
// Set-up (Prepare) is one pass over the tile space, the one the
// generated program makes at start-up: it counts each load-balancing
// slab's cells and tiles for the static balance (Section IV-J), collects
// the initial tiles (Section IV-K) and fills the row plan's shape table.
// Every run is SPMD: each rank — a node of the paper's hybrid program —
// runs the same code over an mpi.Transport, whether the ranks are
// goroutine groups over one in-process mpi.Comm or processes over
// dpgen/internal/mpi/tcp, and they meet only through edges and a closing
// collective. Each node owns a set of tiles and schedules them by per-tile
// dependence counting: a tile waits in its slab's page of the pending
// table (live.go) until its last edge arrives, then lands in its home
// shard of the ready pool, ordered by the Figure 5 priority — table and
// pool both dpgen/internal/sched's, which generated programs run too. Worker goroutines loop popping
// their own shard's best tile, stealing from other shards when empty,
// then unpack the tile's edges into a per-worker buffer with a
// ghost-cell shell, run the user kernel over the tile's cells in
// dependence order, pack the outgoing edges, and deliver them locally
// or send them to the owning rank. A receiver goroutine per node,
// blocked in Transport.Recv, stands in for the paper's "poll for
// incoming edges" step (Section V-A step 6: an MPI rank has no progress
// thread, so its workers probe between tiles; a goroutine is one).
//
// The hot path runs on a row plan bound to the run's parameters
// (tiling.RowPlan): Prepare walks each distinct tile shape once — its
// rows, with bounds and dependence validity as intervals, and its
// partial edge slabs as copy spans — and a run replays a tile's shape
// around one cell loop. Tiles whose whole dependence shell lies inside
// the iteration space (the interior-tile classification of
// dpgen/internal/tiling) share one shape, and their pack/unpack collapse
// to strided copies. The checked per-cell enumerator remains as the
// reference path (Config.DisableFastPath).
// Edge buffers cycle through a per-worker free stack backed by the mpi
// package's pools and the pending table's pages are indexed by integer
// packings of the tile coordinates and recycled slab to slab, so the
// steady-state loop allocates nothing. A tile's fixed toll is paid once
// per tile, not once per edge: one polytope probe settles a core tile's
// whole neighbourhood (tiling.TileProbe.Core), an interior tile's range
// lengths are settled once where none varies over it, and the edge
// accounting of its deliveries is published in one step after its sends.
//
// Only tiles in execution have full buffers; tiles awaiting execution
// hold just their edges, giving the O(n^{d-1}) memory behaviour of
// Section V-B. Cell values are bit-identical for every node count,
// thread count and priority policy, because each cell is computed exactly
// once from fully determined inputs.
package engine

import (
	"fmt"
	"time"

	"dpgen/internal/balance"
	"dpgen/internal/mpi"
	"dpgen/internal/obs"
	"dpgen/internal/tiling"
)

// Config controls a run. Zero values select the defaults noted.
type Config struct {
	// Nodes is the number of ranks (default 1). Without a Transport, Run
	// runs all of them in this process over one in-memory mpi.Comm; with
	// one it is taken from Transport.Size().
	Nodes    int
	Threads  int // workers per node, the OpenMP analog (default 1)
	SendBufs int // send buffers per rank (default 4)
	RecvBufs int // receive buffers per rank (default 16)
	// Transport, if set, is this process's endpoint of a distributed
	// job: Run executes only rank Transport.ID() of Transport.Size(),
	// the same per-rank code an in-process run executes for each of its
	// ranks, and inter-node edges travel over it (e.g.
	// dpgen/internal/mpi/tcp). SendBufs/RecvBufs are configured on the
	// transport itself at construction. Every rank must run the same
	// problem with the same configuration — tiling, balance and
	// ownership are recomputed identically on each process. Run takes
	// ownership of the transport and closes it once set-up has
	// succeeded. See docs/TRANSPORT.md.
	Transport mpi.Transport
	Priority  Priority
	Balance   balance.Method
	// DisableFastPath forces every tile through the checked reference
	// machinery (the bound-evaluating cell enumerator with per-cell
	// validity checks, nest-driven pack/unpack), bypassing the row plan
	// and the interior-tile classification. Results are bit-identical
	// either way; the flag exists for verification and overhead
	// measurement. A run whose parameters defeat the row plan's overflow
	// proof (tiling.RowPlan.OK) behaves as if it were set.
	DisableFastPath bool
	// OnCell, if set, is invoked for every computed cell with the global
	// coordinates and the computed value. Called concurrently from
	// workers; the coordinate slice must not be retained.
	OnCell func(x []int64, v float64)
	// Tracer, if set, records the tile lifecycle (ready, pop, unpack,
	// kernel, pack, edge traffic, stalls, idle) on per-worker timelines;
	// see dpgen/internal/obs. Nil costs one pointer check per event
	// site. A tracer must not be reused across runs.
	Tracer *obs.Tracer
	// Checkpoint enables the fault-tolerance layer: periodic per-rank
	// checkpoints of the completed-tile frontier and buffered edges,
	// plus the duplicate-edge filtering that makes a restarted peer's
	// replayed traffic safe. Every rank of a recovery-enabled job (tcp
	// Options.Recovery) must set it. See docs/FAULT_TOLERANCE.md.
	Checkpoint CheckpointConfig
	// CrashAfterTiles, if positive, invokes CrashFn once after this
	// rank has executed that many tiles — the deterministic
	// fault-injection hook behind the recovery tests and dprun's
	// -crash-after-tiles flag. Checkpoint writes stop once the crash
	// fires, so the surviving checkpoint reflects a pre-crash frontier.
	CrashAfterTiles int64
	// CrashFn is the crash action for CrashAfterTiles: an os.Exit
	// wrapper in real processes, a transport Kill in in-process tests.
	// Required when CrashAfterTiles is positive. It must end the rank's
	// run: once it has fired the rank never reports its tiles finished.
	CrashFn func()
	// Elastic enables elastic cluster membership: ranks joining and
	// leaving mid-run with live re-partitioning and migration of the
	// in-flight tile state. Requires a distributed run over a
	// transport with membership support (dpgen/internal/mpi/tcp). It
	// cannot run with Checkpoint: no checkpoint records the epoch's
	// ownership map yet, so a resumed rank could not tell which tiles it
	// still owns. See docs/ELASTICITY.md.
	Elastic ElasticConfig
}

// CheckpointConfig configures the engine's fault-tolerance checkpoints
// (Config.Checkpoint). The checkpoint holds the rank's executed-tile
// set, its buffered dependence edges (the O(n^{d-1}) live state), and
// the goal/max accumulators; it is encoded at the rank's cut, with the
// workers paused and every send acknowledged, which guarantees every
// recorded tile's outgoing edges were received by their consumers.
// Correctness never depends on checkpoint recency — a missing or stale
// checkpoint only means more tiles are recomputed on resume.
type CheckpointConfig struct {
	// Dir is the checkpoint directory; empty disables the
	// fault-tolerance layer. Each rank writes Dir/rank-<id>.ckpt
	// atomically (temp file + rename).
	Dir string
	// EveryTiles is the checkpoint cadence in executed tiles
	// (default 64 when Dir is set).
	EveryTiles int64
	// Resume restores the rank's state from Dir/rank-<id>.ckpt before
	// the run starts: recorded tiles are not re-executed, recorded
	// edges are replayed into the pending table, and everything else is
	// recomputed — remote edges lost with the crashed process arrive
	// again from the peers' retained send histories (tcp.DialRejoin).
	// A missing checkpoint file resumes from scratch.
	Resume bool
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.SendBufs == 0 {
		c.SendBufs = 4
	}
	if c.RecvBufs == 0 {
		c.RecvBufs = 16
	}
	if c.Checkpoint.Dir != "" && c.Checkpoint.EveryTiles <= 0 {
		c.Checkpoint.EveryTiles = 64
	}
	return c
}

// NodeStats are per-node runtime counters.
type NodeStats struct {
	TilesExecuted int64
	CellsComputed int64
	// EdgesSentRemote / EdgesRecvRemote count MPI edge messages;
	// EdgesLocal counts same-node deliveries.
	EdgesSentRemote int64
	EdgesRecvRemote int64
	EdgesLocal      int64
	// PeakPendingEdges is the maximum number of packed edges buffered at
	// once (the Figure 4 quantity); PeakBufferedElems the same in
	// float64 elements.
	PeakPendingEdges  int64
	PeakBufferedElems int64
	// PeakPendingTiles is the maximum of the pending-table entries plus
	// the ready queue, sampled after each tile's sends. The entries are
	// counted where they are installed and completed, per delivering
	// goroutine, and published with its edge accounting.
	PeakPendingTiles int64
	// IdleTime is total worker time spent waiting for ready tiles.
	IdleTime time.Duration
	// SendStallTime is total worker time blocked in remote sends on
	// exhausted send (or destination receive) buffers — the counter
	// that explains the Section VI-C buffer-count sweep.
	SendStallTime time.Duration
	// Steals counts tiles a worker took from another worker's shard;
	// LocalPops counts tiles popped from the worker's own shard. Their
	// sum is TilesExecuted.
	Steals    int64
	LocalPops int64
	// QueueDepthPeak is the maximum number of ready tiles queued across
	// the node's shards at once.
	QueueDepthPeak int64
	// Deprecated: StaticTiles is always 0. It counted the tiles of a
	// static wavefront phase that no longer exists; every tile is
	// dependence-counted. The field stays for readers that still print
	// it.
	StaticTiles int64
	// EdgesDroppedDup counts duplicate edges dropped by the
	// fault-tolerance deduplication layer — replayed traffic after a
	// peer restart, or a resumed rank's own recomputed sends.
	EdgesDroppedDup int64
	// Checkpoints and CheckpointBytes count fault-tolerance checkpoint
	// writes and their total encoded size.
	Checkpoints     int64
	CheckpointBytes int64
	// HeartbeatMisses and PeerRestarts are the transport's recovery
	// counters (tcp.Transport.RecoveryStats), sampled after the run's
	// result merge; only the local rank's entry is populated.
	HeartbeatMisses int64
	PeerRestarts    int64
	// Epochs counts membership epochs this rank applied (elastic
	// runs; see Config.Elastic). TilesMigratedOut/In and
	// EdgesMigratedOut/In count the live tiles and their buffered
	// edges shipped off or absorbed at view changes; EdgesForwarded
	// counts stale-epoch edges re-sent to a tile's current owner.
	Epochs           int64
	TilesMigratedOut int64
	TilesMigratedIn  int64
	EdgesMigratedOut int64
	EdgesMigratedIn  int64
	EdgesForwarded   int64
	// WireBytesSent and WireBytesRecv are the transport's raw
	// bytes-on-wire counters (tcp.Transport.Bytes), frame headers
	// included, sampled after the run's result merge. Zero for
	// in-process transports; only the local rank's entry is populated.
	WireBytesSent int64
	WireBytesRecv int64
}

// Result is the outcome of a run.
type Result struct {
	// Value is the state value at the spec's goal location.
	Value float64
	// Max is the maximum state value over the whole iteration space —
	// the answer for problems like local sequence alignment whose
	// optimum is not anchored at a fixed location. NaN when no cells
	// were computed.
	Max float64
	// Stats has one entry per rank, indexed by rank number. An
	// in-process run fills every entry; a distributed run only its own
	// rank's (the others live in other processes).
	Stats []NodeStats
	// Messages and Elems are totals over every rank, from the closing
	// collective merge.
	Messages, Elems int64
	// BalanceTime is the load-balancing cost (Section IV-J; the paper
	// evaluates precomputed Ehrhart polynomials here, we count directly),
	// which includes finding the initial tiles of Section IV-K in the
	// same pass. InitTime is the seeding of those tiles into the ranks'
	// schedulers: the longest rank's, as the ranks seed independently.
	// TotalTime covers the whole run.
	BalanceTime, InitTime, TotalTime time.Duration
	// Assignment records per-node work for balance diagnostics.
	Work []int64
}

// Run executes the problem described by tl with the given kernel and
// parameter values. With cfg.Transport set it runs as one rank of a
// distributed job (see Config.Transport); otherwise it runs all
// cfg.Nodes ranks in-process.
func Run(tl *tiling.Tiling, kernel Kernel, params []int64, cfg Config) (*Result, error) {
	start := time.Now()
	cfg, members, err := resolve(tl, kernel, params, cfg)
	if err != nil {
		return nil, err
	}
	prep, err := prepare(tl, params, cfg.Nodes, members, cfg.Balance)
	if err != nil {
		return nil, err
	}
	return run(prep, kernel, cfg, start)
}

// resolve applies the defaults, folds the transport's size into Nodes
// and validates everything about a run that can be judged before load
// balancing. It returns the resolved Config and the sorted initial
// member set: every rank, unless elastic membership names a subset.
func resolve(tl *tiling.Tiling, kernel Kernel, params []int64, cfg Config) (Config, []int, error) {
	cfg = cfg.withDefaults()
	tr := cfg.Transport
	if tr != nil {
		cfg.Nodes = tr.Size()
	}
	if kernel == nil {
		return cfg, nil, fmt.Errorf("engine: nil kernel")
	}
	if len(params) != len(tl.Spec.Params) {
		return cfg, nil, fmt.Errorf("engine: got %d params, spec has %d", len(params), len(tl.Spec.Params))
	}
	if err := tl.Spec.CheckParams(params); err != nil {
		return cfg, nil, fmt.Errorf("engine: %w", err)
	}
	goal := tl.Spec.GoalPoint()
	goalVals := append(append([]int64{}, params...), goal...)
	if !tl.Spec.System().Contains(goalVals) {
		return cfg, nil, fmt.Errorf("engine: goal %v outside the iteration space for params %v", goal, params)
	}
	ft := cfg.Checkpoint.Dir != ""
	if cfg.Checkpoint.Resume && !ft {
		return cfg, nil, fmt.Errorf("engine: Checkpoint.Resume requires Checkpoint.Dir")
	}
	if cfg.CrashAfterTiles > 0 && cfg.CrashFn == nil {
		return cfg, nil, fmt.Errorf("engine: CrashAfterTiles requires CrashFn")
	}
	if !cfg.Elastic.Enabled {
		members, _ := normalizeMembers(nil, cfg.Nodes)
		return cfg, members, nil
	}
	switch {
	case tr == nil:
		return cfg, nil, fmt.Errorf("engine: Elastic requires a Transport (distributed run): an in-process simulation has no processes to join or leave")
	case ft:
		return cfg, nil, fmt.Errorf("engine: Elastic cannot run with Checkpoint: no checkpoint records the epoch's ownership map yet")
	}
	if _, ok := tr.(elasticTransport); !ok {
		return cfg, nil, fmt.Errorf("engine: transport %T does not support elastic membership", tr)
	}
	for r := range cfg.Elastic.LeaveAfter {
		if r <= 0 || r >= cfg.Nodes {
			return cfg, nil, fmt.Errorf("engine: elastic LeaveAfter rank %d out of range [1,%d): rank 0 (the coordinator) cannot leave", r, cfg.Nodes)
		}
	}
	members, err := normalizeMembers(cfg.Elastic.Members, cfg.Nodes)
	return cfg, members, err
}
