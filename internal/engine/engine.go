// Package engine is the hybrid runtime of the generated programs
// (Section V of the paper), with goroutine worker pools standing in for
// OpenMP threads and dpgen/internal/mpi standing in for MPI ranks.
//
// Set-up (Prepare) is one pass over the tile space, the one the
// generated program makes at start-up: it counts each load-balancing
// slab's cells and tiles for the static balance (Section IV-J), collects
// the initial tiles (Section IV-K) and fills the row plan's shape table.
// Each simulated node owns a set of tiles and schedules them by per-tile
// dependence counting: a tile waits in the pending table's page for its
// slab (live.go) until its last edge arrives, then lands in its home shard
// of the shared ready pool
// (dpgen/internal/sched, the scheduler generated programs run too),
// ordered by the Figure 5 priority. Worker goroutines loop popping
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
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpgen/internal/balance"
	"dpgen/internal/mpi"
	"dpgen/internal/obs"
	"dpgen/internal/sched"
	"dpgen/internal/tiling"
)

// Config controls a run. Zero values select the defaults noted.
type Config struct {
	Nodes    int // simulated MPI ranks (default 1); ignored when Transport is set
	Threads  int // workers per node, the OpenMP analog (default 1)
	SendBufs int // send buffers per rank (default 4)
	RecvBufs int // receive buffers per rank (default 16)
	// Transport, if set, switches Run to distributed single-rank mode:
	// this process executes only rank Transport.ID() of a
	// Transport.Size()-rank job, and inter-node edges travel over the
	// given transport (e.g. dpgen/internal/mpi/tcp) instead of an
	// internally created in-memory communicator. Nodes is taken from
	// Transport.Size(); SendBufs/RecvBufs are configured on the
	// transport itself at construction. Every rank must run the same
	// problem with the same configuration — tiling, balance and
	// ownership are recomputed identically on each process. Run takes
	// ownership of the transport and closes it. See docs/TRANSPORT.md.
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
	// Stats has one entry per node.
	Stats []NodeStats
	// Messages and Elems are communicator totals.
	Messages, Elems int64
	// BalanceTime is the load-balancing cost (Section IV-J; the paper
	// evaluates precomputed Ehrhart polynomials here, we count directly),
	// which includes finding the initial tiles of Section IV-K in the
	// same pass. InitTime is the serial seeding of those tiles into the
	// nodes' schedulers. TotalTime covers the whole run.
	BalanceTime, InitTime, TotalTime time.Duration
	// Assignment records per-node work for balance diagnostics.
	Work []int64
}

type engine struct {
	prep   *Prepared
	tl     *tiling.Tiling
	kernel Kernel
	params []int64
	cfg    Config
	comm   *mpi.Comm

	// owners is the one ownership map: the prepared assignment, swapped
	// atomically at elastic view changes while every worker is paused.
	// Its slab table (Slabs, SlabIndex) is shared by every epoch.
	owners atomic.Pointer[balance.Assignment]

	// Per-run dependence geometry: the template base offsets and range
	// steps evaluated at this run's parameter values (variable-distance
	// templates make them parameter-dependent), and the row plan bound
	// to them: nil on the checked reference path (DisableFastPath, or
	// no overflow proof), which every reader tests.
	depLocOff []int64
	depStride []int64
	rows      *tiling.RowPlan

	// sameSlab[j]: tile dependence j's offset is zero on every
	// load-balancing dimension, so a tile and its consumer along j share
	// a slab — and an owner, under any assignment.
	sameSlab []bool

	goalTile  []int64
	goalLocal []int64

	goalMu  sync.Mutex // guards goalVal and goalSet: taken by the goal tile alone
	goalVal float64
	goalSet bool

	finished sync.WaitGroup // one per node: all owned tiles executed
}

// Run executes the problem described by tl with the given kernel and
// parameter values. With cfg.Transport set it runs as one rank of a
// distributed job (see Config.Transport); otherwise it simulates all
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
	members, err := normalizeMembers(cfg.Elastic.Members, cfg.Nodes)
	return cfg, members, err
}

// run executes a resolved Config from its prepared front half: build
// the engine and nodes, seed, launch, await, collect. start is when the
// caller began, so TotalTime covers validation and Run's balance.
func run(prep *Prepared, kernel Kernel, cfg Config, start time.Time) (*Result, error) {
	e, nodes, err := newEngine(prep, kernel, cfg)
	if err != nil {
		return nil, err
	}
	initStart := time.Now()
	if err := e.seed(nodes); err != nil {
		return nil, err
	}
	initTime := time.Since(initStart)

	var running sync.WaitGroup
	e.launch(nodes, &running)
	merged, runErr := e.await(nodes)
	for _, n := range nodes {
		n.mu.Lock()
		n.done = true
		n.pauseCond.Broadcast()
		if n.ckptDue != nil {
			close(n.ckptDue) // the checkpointer's last wake-up
		}
		n.mu.Unlock()
		n.pool.Close()
	}
	running.Wait()
	if runErr != nil {
		// Nodes that never finished (the aborted run's whole point)
		// force their Done so the awaitLocal waiter blocked in
		// finished.Wait exits instead of leaking.
		for _, n := range nodes {
			n.finishOnce.Do(e.finished.Done)
		}
		return nil, fmt.Errorf("engine: distributed run failed: %w", runErr)
	}
	res, err := e.collect(nodes, merged)
	if err != nil {
		return nil, err
	}
	res.BalanceTime, res.InitTime, res.TotalTime = prep.balanceTime, initTime, time.Since(start)
	return res, nil
}

// newEngine builds the run's engine and its local nodes: every rank of
// an in-process simulation, or this process's one rank of a distributed
// job.
func newEngine(prep *Prepared, kernel Kernel, cfg Config) (*engine, []*node, error) {
	if len(prep.assign.Initial) == 0 {
		return nil, nil, fmt.Errorf("engine: no initial tiles — the dependence graph is cyclic or the space is empty")
	}
	e := &engine{
		prep:   prep,
		tl:     prep.tl,
		kernel: kernel,
		params: prep.params,
		cfg:    cfg,
	}
	if !cfg.DisableFastPath && prep.rows.OK() {
		// Without the overflow proof the plan's plain arithmetic is
		// unsafe: e.rows stays nil and the whole run takes the checked
		// reference path.
		e.rows = prep.rows
	}
	e.owners.Store(prep.assign)
	e.goalTile, e.goalLocal = e.tl.GoalTile()
	e.depLocOff = e.tl.DepLocOffAt(e.params)
	e.depStride = e.tl.DepStrideAt(e.params)
	lb := e.tl.LBIndices()
	e.sameSlab = make([]bool, len(e.tl.TileDeps))
	for j, dep := range e.tl.TileDeps {
		e.sameSlab[j] = !slices.ContainsFunc(lb, func(k int) bool { return dep.Offset[k] != 0 })
	}
	var nodes []*node
	if tr := cfg.Transport; tr != nil {
		nodes = []*node{newNode(e, tr.ID(), tr)}
	} else {
		comm, err := mpi.NewComm(cfg.Nodes, cfg.SendBufs, cfg.RecvBufs)
		if err != nil {
			return nil, nil, err
		}
		e.comm = comm
		for i := 0; i < cfg.Nodes; i++ {
			nodes = append(nodes, newNode(e, i, comm.Rank(i)))
		}
	}
	// Owned-tile totals come from the balancer's per-slab tile counts.
	for _, n := range nodes {
		n.ownedTotal = prep.assign.Tiles[n.id]
	}
	return e, nodes, nil
}

// seed is the serial initialization of Section IV-K: the initial tiles
// come from the balance's pass over the tile space (Prepare), and every
// process seeds only its own. A resumed rank restores its executed set
// first (executed seeds are not queued again) and replays its
// checkpointed edges after.
func (e *engine) seed(nodes []*node) error {
	nodeByRank := make([]*node, e.cfg.Nodes)
	for _, n := range nodes {
		nodeByRank[n.id] = n
	}
	resumed := make([][]ckptTile, len(nodes)) // nil: no checkpoint to replay
	if e.cfg.Checkpoint.Resume {
		for i, n := range nodes {
			var err error
			if resumed[i], err = n.loadResume(); err != nil {
				return err
			}
		}
	}
	owners := e.owners.Load()
	ds := newDelivState(e)
	for _, t := range e.prep.assign.Initial {
		if n := nodeByRank[owners.Owner(t)]; n != nil {
			n.seedTile(t, n.initLane(), ds)
		}
	}
	for i, recs := range resumed {
		if recs != nil {
			nodes[i].replay(recs)
		}
	}
	return nil
}

// launch starts each node's goroutines — Threads workers, one receiver,
// the checkpointer and the elastic loop where configured — each owning
// one trace lane (workers 0..Threads-1, the others after them), so
// event emission is lock-free.
func (e *engine) launch(nodes []*node, running *sync.WaitGroup) {
	cfg := e.cfg
	spawn := func(wg *sync.WaitGroup, n *node, laneIdx int, name string, body func(*obs.Lane)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lane *obs.Lane
			if cfg.Tracer != nil {
				lane = cfg.Tracer.Lane(n.id, laneIdx, name)
			}
			body(lane)
		}()
	}
	for _, n := range nodes {
		e.finished.Add(1)
		n.checkFinished() // nodes owning zero tiles are already done
		spawn(running, n, cfg.Threads, "recv", n.receiver)
		if n.ckptPath != "" {
			spawn(running, n, laneInit(cfg)+1, "ckpt", n.checkpointer)
		}
		if n.elastic {
			spawn(&n.elasticWG, n, laneInit(cfg)+3, "elastic", func(lane *obs.Lane) { e.elasticLoop(n, lane) })
		}
		for w := 0; w < cfg.Threads; w++ {
			spawn(running, n, w, "worker"+strconv.Itoa(w), func(lane *obs.Lane) { n.worker(w, lane) })
		}
	}
}

// await blocks until every local node has executed its owned tiles,
// then shuts communication down. In-process nothing can be in flight by
// then (a consumer finishes only after receiving every edge it needs),
// so the communicator just closes. A distributed rank first joins the
// collective result merge; a failed transport (peer death) aborts the
// run with an error rather than hanging.
func (e *engine) await(nodes []*node) (*mergedResult, error) {
	tr := e.cfg.Transport
	if tr == nil {
		e.finished.Wait()
		e.comm.Close()
		return nil, nil
	}
	n := nodes[0]
	var merged *mergedResult
	err := e.awaitLocal(tr, n.recvExit)
	if err == nil {
		merged, err = e.mergeDistributed(tr, n.cellMax())
	}
	if rs, ok := tr.(interface{ RecoveryStats() (int64, int64) }); ok {
		hb, pr := rs.RecoveryStats()
		n.mu.Lock()
		n.st.HeartbeatMisses, n.st.PeerRestarts = hb, pr
		n.mu.Unlock()
		if lane := n.initLane(); lane != nil && (hb > 0 || pr > 0) {
			lane.Instant(obs.KHeartbeatMiss, "", -1, hb)
			lane.Instant(obs.KPeerRestart, "", -1, pr)
		}
	}
	if bs, ok := tr.(interface{ Bytes() (int64, int64) }); ok {
		sent, recvd := bs.Bytes()
		n.mu.Lock()
		n.st.WireBytesSent, n.st.WireBytesRecv = sent, recvd
		n.mu.Unlock()
	}
	if n.elastic {
		// The elastic loop outlives the local finish so departed and
		// standby ranks keep answering view changes; it stops only
		// after the collective merge proved every rank is done.
		close(n.stopElastic)
		n.elasticWG.Wait()
	}
	tr.Close()
	return merged, err
}

// collect folds the per-node counters into the Result. A distributed
// run reports the merged values and only the local rank's Stats entry
// (the others live in other processes).
func (e *engine) collect(nodes []*node, merged *mergedResult) (*Result, error) {
	res := &Result{
		Stats: make([]NodeStats, e.cfg.Nodes),
		Work:  e.prep.assign.Work,
	}
	for _, n := range nodes {
		n.st.Steals, n.st.LocalPops, n.st.QueueDepthPeak = n.pool.Counts()
		n.st.EdgesLocal = n.edgesLocalA.Load()
		n.st.EdgesRecvRemote = n.edgesRecvRemoteA.Load()
		n.st.EdgesDroppedDup = n.live.dups
		n.st.PeakPendingEdges = n.peakPendingEdges.Load()
		n.st.PeakBufferedElems = n.peakBufferedElems.Load()
		n.st.PeakPendingTiles = n.peakPendingTiles.Load()
		res.Stats[n.id] = n.st
	}
	if merged != nil {
		res.Value, res.Max = merged.goal, merged.max
		res.Messages, res.Elems = merged.messages, merged.elems
		return res, nil
	}
	res.Messages, res.Elems = e.comm.Stats()
	e.goalMu.Lock()
	defer e.goalMu.Unlock()
	if !e.goalSet {
		return nil, fmt.Errorf("engine: goal tile %v never executed", e.goalTile)
	}
	res.Value = e.goalVal
	var max cellMax
	for _, n := range nodes {
		max.merge(n.cellMax())
	}
	res.Max = math.NaN()
	if max.set {
		res.Max = max.max
	}
	return res, nil
}

// cellMax merges the node's per-worker maxima. The caller is ordered
// after the folds it needs: it holds the frozen live table (a
// checkpoint), or the node has finished.
func (n *node) cellMax() (max cellMax) {
	for _, m := range n.maxes {
		max.merge(m)
	}
	return max
}

// node is one simulated shared-memory node. Its rank endpoint is an
// mpi.Transport: an in-process *mpi.Rank in simulated runs, or (in
// distributed mode) the process's single external transport endpoint.
type node struct {
	eng  *engine
	id   int
	rank mpi.Transport

	// mu guards the done flag, the batched per-tile stats, and the
	// fault-tolerance cadence. Lock order: see liveTable.
	mu   sync.Mutex
	done bool

	// Scheduler state: the live-tile table (live.go) and the ready pool
	// workers pop, steal and park on.
	live *liveTable
	pool *sched.Pool[tileState]

	ownedTotal int64
	executed   int64
	finishOnce sync.Once

	// recvExit closes when the receiver returns: the transport failed
	// or closed.
	recvExit chan struct{}

	// Checkpoint cadence and crash injection (Config.Checkpoint,
	// Config.CrashAfterTiles), under mu. ckptDue holds one wake-up for
	// the checkpointer while a checkpoint is due; the run closes it at
	// done.
	ckptPath  string
	ckptEvery int64
	ckptDue   chan struct{}
	crashAt   int64
	crashed   bool

	// The cut (elastic.go), under mu; only a tracking run's workers
	// take the gate. pauseCond parks workers while paused, quietCond
	// wakes the pauser when the last in-flight tile retires.
	paused     bool
	executingN int
	pauseCond  *sync.Cond
	quietCond  *sync.Cond

	// Elastic membership state (Config.Elastic; see elastic.go).
	// elasticFin/leaveSent are under mu; kick holds one wake-up for the
	// elastic loop after a tile completes.
	elastic     bool
	et          elasticTransport
	elasticFin  bool
	leaveSent   bool
	kick        chan struct{}
	curEpoch    atomic.Uint32
	stopElastic chan struct{}
	elasticWG   sync.WaitGroup

	// maxes holds one fold of the executed tiles' maxima per worker.
	maxes []cellMax

	// Counters off the hot locks: edge-memory accounting plus the
	// scheduler and traffic totals folded into st after the run. A
	// goroutine's deliveries reach them through flush.
	pendingEdges      atomic.Int64
	bufferedElems     atomic.Int64
	peakPendingEdges  atomic.Int64
	peakBufferedElems atomic.Int64
	peakPendingTiles  atomic.Int64
	edgesLocalA       atomic.Int64
	edgesRecvRemoteA  atomic.Int64

	st NodeStats
}

func newNode(e *engine, id int, rank mpi.Transport) *node {
	n := &node{
		eng:      e,
		id:       id,
		rank:     rank,
		recvExit: make(chan struct{}),
	}
	n.pool = sched.NewPool[tileState](e.cfg.Threads, e.cfg.Priority)
	n.maxes = make([]cellMax, e.cfg.Threads)
	// Fault tolerance and elastic membership both need the table's
	// tracking regime: checkpoint and migration serialise exactly the
	// same live state.
	n.live = newLiveTable(e.prep.layout, e.cfg.Checkpoint.Dir != "" || e.cfg.Elastic.Enabled, n.prepTile)
	n.pauseCond, n.quietCond = sync.NewCond(&n.mu), sync.NewCond(&n.mu)
	if e.cfg.Checkpoint.Dir != "" {
		n.ckptPath = CheckpointPath(e.cfg.Checkpoint.Dir, id)
		n.ckptEvery = e.cfg.Checkpoint.EveryTiles
		n.ckptDue = make(chan struct{}, 1)
	}
	if e.cfg.Elastic.Enabled {
		n.elastic = true
		n.et = rank.(elasticTransport) // resolve checked the assertion
		n.kick = make(chan struct{}, 1)
		n.stopElastic = make(chan struct{})
	}
	n.crashAt = e.cfg.CrashAfterTiles
	return n
}

// laneInit is the trace-lane index for the serial seeding phase
// (workers take 0..Threads-1, the receiver Threads).
func laneInit(cfg Config) int { return cfg.Threads + 1 }

// initLane returns the node's seeding-phase trace lane (nil untraced).
func (n *node) initLane() *obs.Lane {
	if n.eng.cfg.Tracer == nil {
		return nil
	}
	return n.eng.cfg.Tracer.Lane(n.id, laneInit(n.eng.cfg), "init")
}

// worker is the per-thread main loop (Section V-A): claim a ready tile
// — own shard first, stealing otherwise — execute it, repeat. With
// nothing claimable anywhere the worker parks; the epoch read before
// the scan makes the empty-scan-then-park sequence race-free against
// concurrent enqueues (see sched.Pool.Push).
func (n *node) worker(w int, lane *obs.Lane) {
	ws := n.newWorkerState(w)
	ws.lane = lane
	track := n.live.track
	for {
		if track {
			// Claim the executing slot before the pop, so a popped tile
			// is always covered by a slot and the cut can wait for a true
			// tile boundary (see elastic.go).
			n.pauseGate()
		}
		e0 := n.pool.Epoch()
		p, stolen := n.pool.Pop(w)
		if p != nil {
			n.execTile(p, ws, stolen)
		}
		if track {
			n.execDone()
		}
		if p != nil {
			continue
		}
		idleStart := time.Now()
		slept, open := n.pool.Park(e0)
		if !open {
			return
		}
		if !slept {
			continue // an enqueue landed after the empty scan; rescan
		}
		idle := time.Since(idleStart)
		n.mu.Lock()
		n.st.IdleTime += idle
		n.mu.Unlock()
		if lane != nil {
			lane.Emit(obs.Event{Kind: obs.KIdle, Start: lane.At(idleStart), Dur: int64(idle), Dep: -1})
		}
	}
}

// receiver drains the node's MPI inbox, delivering edges into the
// pending table. It is the node's progress engine, standing in for the
// paper's lock-guarded polling step: because it never executes tiles, a
// worker blocked in Send cannot starve the node's own inbox. It exits
// when the communicator closes.
func (n *node) receiver(lane *obs.Lane) {
	defer close(n.recvExit)
	ds := newDelivState(n.eng)
	for {
		m, ok := n.rank.Recv()
		if !ok {
			return
		}
		if n.elastic && n.routeElastic(m, lane, ds) {
			continue
		}
		n.deliver(m.Meta, m.Tag, m.Data, true, lane, ds)
		n.flush(ds)
		m.ReleaseSlot()
		mpi.PutMeta(m.Meta)
	}
}

// routeElastic handles the two message kinds only an elastic run sees,
// and reports whether it consumed m.
func (n *node) routeElastic(m *mpi.Message, lane *obs.Lane, ds *delivState) bool {
	switch {
	case m.Tag < 0:
		// A migration payload (see elastic.go). The slot — and with it
		// the acknowledgement — is released only after the payload is
		// fully applied, so the sender's next quiescence point proves
		// these tiles live here now.
		n.applyMigration(m.Data, lane, ds)
		mpi.PutData(m.Data)
	case m.Epoch < n.curEpoch.Load() && n.eng.ownerOf(m.Meta) != n.id:
		// An edge sent under an older membership epoch for a tile that
		// has since moved away. The view change drained all data
		// traffic, so this cannot happen in supported configurations —
		// but if it does, the edge is forwarded to the current owner
		// instead of being dropped or double-applied (the duplicate
		// filter handles the still-owned case).
		meta := mpi.GetMeta(len(m.Meta))
		copy(meta, m.Meta)
		n.rank.Send(n.eng.ownerOf(m.Meta), m.Tag, m.Data, meta)
		n.mu.Lock()
		n.st.EdgesForwarded++
		n.mu.Unlock()
	default:
		return false
	}
	m.ReleaseSlot()
	mpi.PutMeta(m.Meta)
	return true
}

// delivState is per-goroutine delivery scratch: a reusable polytope
// probe and a recycled pending-table entry (an executed tile's), so the
// steady-state deliver path allocates nothing — and the edge and entry
// accounting of the deliveries made since the last flush, so the node's
// shared counters are touched once per tile, not once per edge.
type delivState struct {
	probe *tiling.TileProbe
	spare *pendTile
	// Buffered edges, their elements, and how many arrived locally.
	edges, elems, local int64
	// Pending-table entries installed less those completed.
	entries int64
}

// flush publishes ds's edge and entry accounting to the node's counters
// and samples the peaks. Between a tile's unpack and the end of its sends
// the buffered totals only rise, so sampling after the last delivery
// sees the same peak a sample per edge would.
func (n *node) flush(ds *delivState) {
	if ds.edges > 0 {
		sched.AtomicMax(&n.peakPendingEdges, n.pendingEdges.Add(ds.edges))
		sched.AtomicMax(&n.peakBufferedElems, n.bufferedElems.Add(ds.elems))
		n.edgesLocalA.Add(ds.local)
		ds.edges, ds.elems, ds.local = 0, 0, 0
	}
	sched.AtomicMax(&n.peakPendingTiles, n.live.publish(ds)+n.pool.Len())
}

func newDelivState(e *engine) *delivState {
	return &delivState{probe: e.tl.NewProbe(e.params)}
}

// prepTile builds a ready-to-insert pending-table entry: the dependence
// count, priority key, level and home shard, all polytope evaluations,
// and one empty edge slot per tile dependence. The one Core probe
// settles a core tile here for good: all its producers exist, it is
// interior, and all its consumers exist. Other tiles — and every tile of
// the checked reference — take the exact per-neighbour queries.
func (n *node) prepTile(ds *delivState, consumer []int64) *pendTile {
	e := n.eng
	p := ds.spare
	if p != nil {
		ds.spare = nil
	} else {
		p = &pendTile{
			Key:  make([]int64, len(consumer)),
			Tile: tileState{coord: make([]int64, len(consumer)), edges: make([]edge, len(e.tl.TileDeps))},
		}
	}
	copy(p.Tile.coord, consumer)
	if p.Tile.core = e.rows != nil && ds.probe.Core(p.Tile.coord); p.Tile.core {
		p.Tile.remaining.Store(int64(len(e.tl.TileDeps)))
	} else {
		p.Tile.remaining.Store(int64(ds.probe.DepCount(p.Tile.coord)))
	}
	e.tl.PriorityKey(p.Tile.coord, p.Key)
	p.Level = e.tl.TileLevel(p.Tile.coord)
	p.Shard = n.pool.Home(p.Tile.coord)
	return p
}

// enqueue makes a tile runnable: emit its ready event, then push it
// onto its shard of the ready pool. lane is the caller's trace lane.
func (n *node) enqueue(p *pendTile, lane *obs.Lane) {
	if lane != nil {
		lane.Instant(obs.KReady, obs.TileID(p.Tile.coord), -1, 0)
	}
	n.pool.Push(p)
}

// seedTile queues a tile that has no producers — an initial tile, at
// start-up or migrated in — unless the table says it is already past
// counting.
func (n *node) seedTile(t []int64, lane *obs.Lane, ds *delivState) {
	p := n.prepTile(ds, t)
	if !n.live.seed(p) {
		ds.spare = p
		return
	}
	n.enqueue(p, lane)
}

// deliver records one incoming edge for a consumer tile in the live
// table; the tile moves to its home shard when the last dependence
// arrives. lane is the calling goroutine's
// trace lane (nil when untraced); ds is its delivery scratch, which the
// caller flushes when its batch of deliveries ends.
func (n *node) deliver(consumer []int64, dep int, data []float64, remote bool, lane *obs.Lane, ds *delivState) {
	if remote && lane != nil {
		lane.Instant(obs.KRecv, obs.TileID(consumer), int32(dep), int64(len(data)))
	}
	ready, dup := n.live.addEdge(ds, consumer, dep, data)
	if dup {
		mpi.PutData(data)
		return
	}
	ds.edges++
	ds.elems += int64(len(data))
	if remote {
		n.edgesRecvRemoteA.Add(1)
	} else {
		ds.local++
	}
	if ready != nil {
		n.enqueue(ready, lane)
	}
}

// workerState is per-worker scratch: the tile buffer with its ghost
// shell, the kernel context, the shape reader (nil on the checked
// reference path), the reusable polytope probe, the free stack of edge
// buffers and the worker's slot of the node's maximum folds.
type workerState struct {
	buf      []float64
	ctx      Ctx
	specVals []int64
	x        []int64
	xbase    []int64 // global coordinates of the current tile's local origin
	tbuf     []int64 // producer/consumer tile scratch
	shapes   *tiling.ShapeReader
	probe    *tiling.TileProbe
	ds       delivState
	bufs     edgeBufs
	max      *cellMax
	lane     *obs.Lane // trace timeline; nil when untraced
	lenRuns  int64     // offers cut by ShapeReader.LenRun, for the tests' pins
}

// newWorkerState builds the scratch of the node's worker number slot.
func (n *node) newWorkerState(slot int) *workerState {
	e := n.eng
	d := len(e.tl.Spec.Vars)
	w := &workerState{
		max:      &n.maxes[slot],
		buf:      make([]float64, e.tl.AllocLen),
		specVals: make([]int64, e.tl.Spec.Space().N()),
		x:        make([]int64, d),
		xbase:    make([]int64, d),
		tbuf:     make([]int64, d),
		probe:    e.tl.NewProbe(e.params),
	}
	// The probe is shared with the delivery scratch: all uses are
	// call-scoped on this worker's goroutine.
	w.ds = delivState{probe: w.probe}
	// A tile unpacks and packs at most one edge per tile dependence, so
	// twice that many buffers ride out any alternation of the two.
	w.bufs.free = make([][]float64, 0, 2*len(e.tl.TileDeps))
	for _, sz := range e.tl.InteriorEdgeSize {
		w.bufs.size = max(w.bufs.size, int(sz))
	}
	copy(w.specVals, e.params)
	nd := len(e.tl.Spec.Deps)
	in := e.tl.Dense[d-1]
	w.ctx = Ctx{
		V:      w.buf,
		DepLoc: make([]int64, nd),
		// The range steps are constant within a run, so every worker
		// shares the engine's read-only slice.
		DepStride: e.depStride,
		X:         w.x,
		I:         make([]int64, d),
		DepValid:  make([]bool, nd),
		DepLen:    make([]int64, nd),
		P:         e.params,
		// A run advances along the innermost loop level.
		N:     1,
		Step:  int64(in.Dir) * in.Stride,
		Inner: in.Var,
		Dir:   int64(in.Dir),
	}
	if e.rows != nil {
		w.shapes = e.rows.NewReader()
	}
	return w
}

// execTile runs one tile through its phases: unpack the buffered edges,
// execute the cells, pack and send the outgoing edges, retire. stolen
// marks a tile claimed from another worker's shard (recorded on the pop
// event). A panicking user kernel still crashes the run (there is no
// safe way to unwind a half-computed distributed wavefront), but the
// panic is annotated with the tile and the run last offered — its first
// cell and length, since a run-form kernel fails somewhere inside its
// own loop over N — so the kernel bug is findable.
func (n *node) execTile(p *pendTile, w *workerState, stolen bool) {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("engine: kernel panic in tile %v on node %d (last run offered: X=%v N=%d): %v",
				p.Tile.coord, n.id, w.ctx.X, w.ctx.N, r))
		}
	}()
	e := n.eng

	// Tracing: one nil check per phase; tid and timestamps are only
	// computed when a tracer is attached.
	lane := w.lane
	var tid string
	var t0 int64
	if lane != nil {
		tid = obs.TileID(p.Tile.coord)
		var stolenVal int64
		if stolen {
			stolenVal = 1
		}
		lane.Instant(obs.KPop, tid, -1, stolenVal)
		t0 = lane.Now()
	}

	n.unpackEdges(p, w)
	if lane != nil {
		lane.Span(obs.KUnpack, tid, -1, 0, t0)
		t0 = lane.Now()
	}

	// Execute the cells in dependence order: row by row through the
	// bound row plan (an interior tile is its all-rows-full, all-valid
	// case), or cell by cell through the checked reference enumerator.
	var cells int64
	var tileMax float64
	fast := e.rows != nil
	interior := fast && (p.Tile.core || w.probe.Interior(p.Tile.coord))
	if fast {
		cells, tileMax = n.execRows(p, w, interior)
	} else {
		cells, tileMax = n.execCellsChecked(p, w)
	}
	if lane != nil {
		lane.Span(obs.KKernel, tid, -1, cells, t0)
	}
	if slices.Equal(p.Tile.coord, e.goalTile) {
		e.goalMu.Lock()
		e.goalVal, e.goalSet = w.buf[e.tl.Loc(e.goalLocal)], true
		e.goalMu.Unlock()
	}

	if lane != nil {
		t0 = lane.Now()
	}
	sentRemote, stall := n.sendEdges(p, w, interior, tid)
	n.flush(&w.ds)
	if lane != nil {
		lane.Span(obs.KPack, tid, -1, 0, t0)
	}

	// The tile's sends are issued: it is executed.
	n.live.retire(p, w.max, cellMax{max: tileMax, set: cells > 0})
	n.tileDone(p, w, cells, sentRemote, stall)
}

// unpackEdges copies the tile's received edges into the ghost shell.
// The producer of edge dep j is p.Tile.coord + offset_j; pack and unpack
// share that producer's slab order, so the elements match exactly. A
// full-slab edge (its length equals the dense size) unpacks with the
// precompiled strided copy regardless of how the producer packed it;
// partial boundary slabs copy the spans of the producer's slab shape.
func (n *node) unpackEdges(p *pendTile, w *workerState) {
	e := n.eng
	tl := e.tl
	fast := e.rows != nil
	for _, ed := range p.Tile.edges {
		if ed.data == nil {
			continue
		}
		if fast && int64(len(ed.data)) == tl.InteriorEdgeSize[ed.dep] {
			tl.UnpackInterior(ed.dep, w.buf, ed.data)
			continue
		}
		producer := w.tbuf
		for k, off := range tl.TileDeps[ed.dep].Offset {
			producer[k] = p.Tile.coord[k] + off
		}
		var got int
		if fast {
			got = w.shapes.UnpackPartial(ed.dep, producer, w.buf, ed.data)
		} else {
			tl.ForEachEdgeCell(e.params, producer, ed.dep, func(i []int64) bool {
				if got < len(ed.data) {
					w.buf[tl.UnpackLoc(ed.dep, i)] = ed.data[got]
				}
				got++
				return true
			})
		}
		if got != len(ed.data) {
			side := "short"
			if len(ed.data) > got {
				side = "long"
			}
			panic(fmt.Sprintf("engine: unpack size mismatch: edge %d of tile %v has %d values for %d slab cells (the edge is %s)",
				ed.dep, p.Tile.coord, len(ed.data), got, side))
		}
	}
	// Released at once, onto this worker's free stack: no cut sees a
	// tile between unpack and retire.
	freedEdges, freedElems := releaseEdges(p, &w.bufs)
	n.pendingEdges.Add(-freedEdges)
	n.bufferedElems.Add(-freedElems)
}

// sendEdges packs the tile's outgoing edges and delivers them locally
// or sends them to the owning rank (steps 4a/4b of Section V-A).
// Buffers come from the worker's free stack, sized by the dense slab
// bound, so packing never grows a slice; interior tiles fill with
// strided copies. A core tile's consumers all exist, and a consumer in
// the tile's own load-balancing slab is this node's without a lookup.
// Returns the remote sends issued and the time they spent stalled.
func (n *node) sendEdges(p *pendTile, w *workerState, interior bool, tid string) (sentRemote int64, stallSum time.Duration) {
	e := n.eng
	tl := e.tl
	lane := w.lane
	fast := e.rows != nil
	for j := range tl.TileDeps {
		consumer := w.tbuf
		for k, off := range tl.TileDeps[j].Offset {
			consumer[k] = p.Tile.coord[k] - off
		}
		if !p.Tile.core && !w.probe.InSpace(consumer) {
			continue
		}
		data := w.bufs.get(int(tl.InteriorEdgeSize[j]))
		switch {
		case interior:
			tl.PackInterior(j, w.buf, data)
		case fast:
			data = w.shapes.PackPartial(j, p.Tile.coord, w.buf, data[:0])
		default:
			data = data[:0]
			tl.ForEachEdgeCell(e.params, p.Tile.coord, j, func(i []int64) bool {
				data = append(data, w.buf[tl.Loc(i)])
				return true
			})
		}
		owner := n.id
		if !e.sameSlab[j] {
			owner = e.ownerOf(consumer)
		}
		if owner == n.id {
			n.deliver(consumer, j, data, false, lane, &w.ds)
			continue
		}
		meta := mpi.GetMeta(len(consumer))
		copy(meta, consumer)
		var sendT0 int64
		if lane != nil {
			sendT0 = lane.Now()
		}
		stall := n.rank.Send(owner, j, data, meta)
		if lane != nil {
			if stall > 0 {
				lane.Emit(obs.Event{Kind: obs.KStall, Start: sendT0, Dur: int64(stall), Tile: tid, Dep: int32(j)})
			}
			lane.Span(obs.KSend, obs.TileID(consumer), int32(j), int64(len(data)), sendT0)
		}
		sentRemote++
		stallSum += stall
	}
	return sentRemote, stallSum
}

// tileDone is execTile's epilogue: the batched per-tile stats, the
// checkpoint cadence, crash injection and voluntary leave triggers and
// the termination check.
func (n *node) tileDone(p *pendTile, w *workerState, cells, sentRemote int64, stall time.Duration) {
	e := n.eng
	lane := w.lane
	var crash, wantLeave bool
	n.mu.Lock()
	n.st.TilesExecuted++
	n.st.CellsComputed += cells
	n.st.EdgesSentRemote += sentRemote
	n.st.SendStallTime += stall
	n.executed++
	if n.ckptEvery > 0 && !n.crashed && !n.done && n.executed%n.ckptEvery == 0 {
		select {
		case n.ckptDue <- struct{}{}:
		default: // already due
		}
	}
	if n.crashAt > 0 && !n.crashed && n.executed >= n.crashAt {
		n.crashed = true // no further checkpoints: the crash point is final
		crash = true
	}
	finished := n.executed == n.ownedTotal
	if n.elastic && !n.leaveSent {
		// Voluntary departure: ask the coordinator out once the
		// threshold is reached — or on local completion, so a rank
		// whose tiles ran out early still honours its leave (and the
		// coordinator's ExpectLeaves accounting).
		if la := e.cfg.Elastic.LeaveAfterTiles; la > 0 && (n.executed >= la || finished) {
			n.leaveSent = true
			wantLeave = true
		}
	}
	n.mu.Unlock()
	if crash {
		e.cfg.CrashFn()
	}
	if wantLeave {
		n.et.SendElastic(0, mpi.ElasticLeave, nil)
	}
	if n.elastic {
		select {
		case n.kick <- struct{}{}:
		default:
		}
	}
	// Sample the pending-edge curve (the Figure 4 quantity as a time
	// series) and the ready-queue depth at every tile completion.
	if lane != nil {
		lane.Instant(obs.KPending, "", -1, n.pendingEdges.Load())
		lane.Instant(obs.KQueueDepth, "", -1, n.pool.Len())
	}
	if w.ds.spare == nil {
		w.ds.spare = p // reused by this worker's next pending-table miss
	}
	if finished {
		n.checkFinished()
	}
}

// badDone reports a kernel that answered outside [1, N].
func badDone(c *Ctx, tile []int64) {
	panic(fmt.Sprintf("engine: kernel set Done=%d of N=%d in tile %v", c.Done, c.N, tile))
}

// execCellsChecked is the reference cell loop: the exact
// bound-evaluating enumerator with DepLenAt at every cell, all in
// overflow-checked arithmetic. It runs when DisableFastPath is set or
// the row plan's overflow proof failed, and is what the oracle diffs the
// row path against: every call offers a run of one cell, so a
// run-capable kernel executes the same body at run length 1.
func (n *node) execCellsChecked(p *pendTile, w *workerState) (cells int64, tileMax float64) {
	e := n.eng
	tl := e.tl
	np := len(e.params)
	tileMax = math.Inf(-1)
	tl.ForEachCell(e.params, p.Tile.coord, func(i []int64) bool {
		cells++
		loc := tl.Loc(i)
		for k := range i {
			w.x[k] = i[k] + tl.Widths[k]*p.Tile.coord[k]
			w.specVals[np+k] = w.x[k]
		}
		w.ctx.Loc = loc
		w.ctx.I = i
		for j := range w.ctx.DepLoc {
			w.ctx.DepLoc[j] = loc + e.depLocOff[j]
			ln := tl.DepLenAt(j, w.specVals)
			w.ctx.DepLen[j] = ln
			w.ctx.DepValid[j] = ln > 0
		}
		w.ctx.Done = 1 // N stays at the 1 newWorkerState set
		e.kernel(&w.ctx)
		if w.ctx.Done != 1 {
			badDone(&w.ctx, p.Tile.coord)
		}
		if v := w.buf[loc]; v > tileMax {
			tileMax = v
		}
		if e.cfg.OnCell != nil {
			e.cfg.OnCell(w.x, w.buf[loc])
		}
		return true
	})
	return cells, tileMax
}

// execRows is the row runner: it replays the tile's shape (tiling.Shape:
// its rows' runs of constant dependence validity, in execution order)
// around the one inner cell loop below, which hands the kernel
// what is left of the run — in either direction, N cells from the
// current one — and advances by the Done cells the kernel took. Validity
// is set where it changes, so once per interior tile, and with it an
// interior tile's range lengths when none varies over the tile
// (tiling.ShapeReader.ConstLens); elsewhere, where a valid range
// dependence's length varies along a run, the offer is cut to the cells
// that share the current lengths. With OnCell set every offer is one
// cell, so the hook keeps its cell-by-cell interleaving.
func (n *node) execRows(p *pendTile, w *workerState, interior bool) (cells int64, tileMax float64) {
	e := n.eng
	tl := e.tl
	ctx := &w.ctx
	// Slice headers live in locals: the kernel call cannot change them,
	// so the cell loop reloads and re-checks nothing.
	depOff, depLoc := e.depLocOff, ctx.DepLoc[:len(e.depLocOff)]
	depValid, depLen := ctx.DepValid, ctx.DepLen
	kernel := e.kernel
	onCell := e.cfg.OnCell
	buf, x, xbase, idx := w.buf, w.x, w.xbase, ctx.I
	for k, wd := range tl.Widths {
		xbase[k] = wd * p.Tile.coord[k]
	}
	outer, in := tl.Dense[:len(tl.Dense)-1], tl.Dense[len(tl.Dense)-1]
	no := len(outer)
	li, xi, xb := &idx[in.Var], &x[in.Var], xbase[in.Var]
	dir, step := ctx.Dir, ctx.Step
	tileMax = math.Inf(-1)
	sh := w.shapes.Cells(p.Tile.coord, interior)
	valid := ^uint64(0) // no run's: bit 63 is never a dependence
	settled := false    // every range length is constant over the tile and set
	row, rowLoc := int32(-1), int64(0)
	for q := range sh.Runs {
		run := &sh.Runs[q]
		if run.Row != row {
			row, rowLoc = run.Row, sh.Loc[run.Row]
			for l, L := range outer {
				v := sh.Outer[int(row)*no+l]
				idx[L.Var], x[L.Var] = v, xbase[L.Var]+v
			}
		}
		if run.Valid != valid {
			valid = run.Valid
			for j := range depValid {
				depValid[j], depLen[j] = valid>>j&1 != 0, int64(valid>>j&1)
			}
			// An interior tile's runs share one validity, so this is once
			// per tile: lengths constant over it are set here, for good.
			settled = interior && w.shapes.ConstLens(depLen)
		}
		i, cnt := run.From, (run.To-run.From)*dir+1
		cells += cnt
		ranged := run.Ranged() && !settled
		for loc := rowLoc + i*in.Stride; cnt > 0; {
			*li, *xi = i, xb+i
			ctx.Loc = loc
			for j, off := range depOff {
				depLoc[j] = loc + off
			}
			offer := cnt
			if ranged {
				offer = w.shapes.LenRun(run, i, cnt, depLen)
				w.lenRuns++
			}
			if onCell != nil {
				offer = 1
			}
			ctx.N, ctx.Done = offer, 1
			kernel(ctx)
			done := ctx.Done
			if done < 1 || done > offer {
				badDone(ctx, p.Tile.coord)
			}
			i += done * dir
			cnt -= done
			if onCell != nil {
				onCell(x, buf[loc]) // the offer was this one cell
			}
			for ; done > 0; done-- {
				if v := buf[loc]; v > tileMax {
					tileMax = v
				}
				loc += step
			}
		}
	}
	return cells, tileMax
}

// checkFinished signals global termination bookkeeping exactly once when
// the node has executed every owned tile (including owning none). Under
// elastic membership it additionally waits for the coordinator's FIN:
// owning zero tiles is transient there (a standby may be admitted, a
// view change may migrate tiles in), so only the FIN broadcast makes
// "nothing owned, nothing left" final. A node whose injected crash has
// fired never finishes: CrashFn runs outside mu, and if another worker
// retired the last tile in that window the rank would enter the final
// merge and die inside it — the one death recovery cannot repair.
func (n *node) checkFinished() {
	n.mu.Lock()
	done := n.executed == n.ownedTotal && !n.crashed && (!n.elastic || n.elasticFin)
	n.mu.Unlock()
	if done {
		n.finishOnce.Do(n.eng.finished.Done)
	}
}
