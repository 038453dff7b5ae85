package engine

import (
	"fmt"
	"math"
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

// run is the driver: it builds the ranks this process runs — cfg.Nodes
// of them over one in-memory communicator, or the one rank of
// cfg.Transport — and seeds them one after another, so a set-up error (a
// bad checkpoint file) returns before any rank launches. Then every rank
// runs its lifecycle (node.run) at once, and the Result is assembled from
// their merges and local counters. start is when the caller began, so
// TotalTime covers validation and Run's balance.
func run(prep *Prepared, kernel Kernel, cfg Config, start time.Time) (*Result, error) {
	if len(prep.assign.Initial) == 0 {
		return nil, fmt.Errorf("engine: no initial tiles — the dependence graph is cyclic or the space is empty")
	}
	ranks := []mpi.Transport{cfg.Transport}
	if cfg.Transport == nil {
		comm, err := mpi.NewComm(cfg.Nodes, cfg.SendBufs, cfg.RecvBufs)
		if err != nil {
			return nil, err
		}
		ranks = make([]mpi.Transport, cfg.Nodes)
		for r := range ranks {
			ranks[r] = comm.Rank(r)
		}
	}
	nodes := make([]*node, len(ranks))
	var initTime time.Duration
	for i, tr := range ranks {
		nodes[i] = newNode(prep, kernel, cfg, tr)
		initStart := time.Now()
		if err := nodes[i].seed(); err != nil {
			return nil, err
		}
		initTime = max(initTime, time.Since(initStart))
	}

	merged := make([]*mergedResult, len(nodes))
	errs := make([]error, len(nodes))
	var running sync.WaitGroup
	for i, n := range nodes {
		running.Add(1)
		go func() {
			defer running.Done()
			merged[i], errs[i] = n.run()
		}()
	}
	running.Wait()
	res := &Result{
		Stats:       make([]NodeStats, cfg.Nodes),
		Work:        prep.assign.Work,
		BalanceTime: prep.balanceTime,
		InitTime:    initTime,
	}
	for i, n := range nodes {
		if errs[i] != nil {
			return nil, fmt.Errorf("engine: rank %d: %w", n.id, errs[i])
		}
		res.Stats[n.id] = n.st
	}
	// The merge is collective, so every rank holds the same totals.
	m := merged[0]
	res.Value, res.Max, res.Messages, res.Elems = m.goal, m.max, m.messages, m.elems
	res.TotalTime = time.Since(start)
	return res, nil
}

// node is one rank: a shared-memory node of the paper's hybrid program,
// reaching its peers through rank, its mpi.Transport endpoint. Every
// transport runs the same node code.
type node struct {
	prep   *Prepared
	tl     *tiling.Tiling // prep's
	kernel Kernel
	cfg    Config
	id     int
	rank   mpi.Transport

	// owners is the one ownership map: the prepared assignment, swapped
	// atomically at elastic view changes while every worker is paused.
	// Its slab table (Slabs, SlabIndex) is shared by every epoch.
	owners atomic.Pointer[balance.Assignment]

	// rows is the prepared row plan, or nil on the checked reference
	// path (DisableFastPath, or no overflow proof), which every reader
	// tests.
	rows *tiling.RowPlan

	// mu guards the done flag, the goal value, the batched per-tile
	// stats, and the fault-tolerance cadence. Lock order: see liveTable.
	mu      sync.Mutex
	done    bool
	goalVal float64
	goalSet bool // this rank executed the goal tile

	// Scheduler state: the live-tile table (live.go) and the ready pool
	// workers pop, steal and park on.
	live *liveTable
	pool *sched.Pool[tileState]

	ownedTotal int64
	executed   int64
	// finished closes, once, when the rank has executed its owned tiles
	// (checkFinished).
	finished   chan struct{}
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
	// elasticFin and leaveAt are under mu: leaveAt is this rank's
	// LeaveAfter threshold while its leave request is still to be sent,
	// -1 otherwise. kick holds one wake-up for the elastic loop after a
	// tile completes.
	elastic     bool
	elasticFin  bool
	et          elasticTransport
	leaveAt     int64
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

// newNode builds rank's node for a run of the prepared problem.
func newNode(prep *Prepared, kernel Kernel, cfg Config, rank mpi.Transport) *node {
	n := &node{
		prep:       prep,
		tl:         prep.tl,
		kernel:     kernel,
		cfg:        cfg,
		id:         rank.ID(),
		rank:       rank,
		ownedTotal: prep.assign.Tiles[rank.ID()],
		finished:   make(chan struct{}),
		recvExit:   make(chan struct{}),
	}
	n.owners.Store(prep.assign)
	if !cfg.DisableFastPath && prep.rows.OK() {
		// Without the overflow proof the plan's plain arithmetic is
		// unsafe: n.rows stays nil and the whole run takes the checked
		// reference path.
		n.rows = prep.rows
	}
	n.pool = sched.NewPool[tileState](cfg.Threads, cfg.Priority)
	n.maxes = make([]cellMax, cfg.Threads)
	// Fault tolerance and elastic membership both need the table's
	// tracking regime: checkpoint and migration serialise exactly the
	// same live state.
	n.live = newLiveTable(prep.layout, prep.tl.DepOffsets(), cfg.Checkpoint.Dir != "" || cfg.Elastic.Enabled, n.prepTile)
	n.pauseCond, n.quietCond = sync.NewCond(&n.mu), sync.NewCond(&n.mu)
	if cfg.Checkpoint.Dir != "" {
		n.ckptPath = CheckpointPath(cfg.Checkpoint.Dir, n.id)
		n.ckptEvery = cfg.Checkpoint.EveryTiles
		n.ckptDue = make(chan struct{}, 1)
	}
	if cfg.Elastic.Enabled {
		n.elastic = true
		n.et = rank.(elasticTransport) // resolve checked the assertion
		n.kick = make(chan struct{}, 1)
		n.stopElastic = make(chan struct{})
		n.leaveAt = -1
		if la, ok := cfg.Elastic.LeaveAfter[n.id]; ok {
			n.leaveAt = max(la, 0)
		}
	}
	n.crashAt = cfg.CrashAfterTiles
	return n
}

// seed is the rank's serial initialization (Section IV-K): the initial
// tiles come from the balance's pass over the tile space (Prepare), and
// the rank seeds only its own. A resumed rank restores its executed set
// first (executed seeds are not queued again) and replays its
// checkpointed edges after.
func (n *node) seed() error {
	var resumed []ckptTile // nil: no checkpoint to replay
	if n.cfg.Checkpoint.Resume {
		var err error
		if resumed, err = n.loadResume(); err != nil {
			return err
		}
	}
	owners := n.owners.Load()
	lane := n.initLane()
	ds := newDelivState(n.prep)
	for _, t := range n.prep.assign.Initial {
		if owners.Owner(t) == n.id {
			n.seedTile(t, lane, ds)
		}
	}
	if resumed != nil {
		n.replay(resumed)
	}
	return nil
}

// run is a seeded rank's lifecycle, the same on every transport: launch
// its goroutines, await its finish and the collective merge, stop the
// goroutines and fold its counters into st.
func (n *node) run() (*mergedResult, error) {
	var running sync.WaitGroup
	n.launch(&running)
	merged, err := n.await()
	n.mu.Lock()
	n.done = true
	n.pauseCond.Broadcast()
	if n.ckptDue != nil {
		close(n.ckptDue) // the checkpointer's last wake-up
	}
	n.mu.Unlock()
	n.pool.Close()
	running.Wait()
	n.collect()
	return merged, err
}

// launch starts the rank's goroutines — Threads workers, one receiver,
// the checkpointer and the elastic loop where configured — each owning
// one trace lane (workers 0..Threads-1, the others after them), so
// event emission is lock-free.
func (n *node) launch(running *sync.WaitGroup) {
	cfg := n.cfg
	spawn := func(wg *sync.WaitGroup, laneIdx int, name string, body func(*obs.Lane)) {
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
	n.checkFinished() // a rank owning zero tiles is already done
	spawn(running, cfg.Threads, "recv", n.receiver)
	if n.ckptPath != "" {
		spawn(running, laneInit(cfg)+1, "ckpt", n.checkpointer)
	}
	if n.elastic {
		spawn(&n.elasticWG, laneInit(cfg)+3, "elastic", n.elasticLoop)
	}
	for w := 0; w < cfg.Threads; w++ {
		spawn(running, w, "worker"+strconv.Itoa(w), func(lane *obs.Lane) { n.worker(w, lane) })
	}
}

// await blocks until the rank has executed its owned tiles or its
// receiver has exited — which it does exactly when the transport fails
// or closes — so a peer's death aborts the run with an error instead of
// stalling it on edges that will never arrive. A finished rank then
// joins the collective result merge. No rank leaves the merge before
// every rank has finished, and a consumer finishes only after receiving
// every edge it needs, so closing the transport after it strands
// nothing in flight.
func (n *node) await() (*mergedResult, error) {
	select {
	case <-n.finished:
	case <-n.recvExit:
	}
	tr := n.rank
	var merged *mergedResult
	err := tr.Err()
	if err == nil {
		merged, err = n.merge()
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

// collect folds the rank's off-lock counters into st, once its
// goroutines have exited.
func (n *node) collect() {
	n.st.Steals, n.st.LocalPops, n.st.QueueDepthPeak = n.pool.Counts()
	n.st.EdgesLocal = n.edgesLocalA.Load()
	n.st.EdgesRecvRemote = n.edgesRecvRemoteA.Load()
	n.st.EdgesDroppedDup = n.live.dups
	n.st.PeakPendingEdges = n.peakPendingEdges.Load()
	n.st.PeakBufferedElems = n.peakBufferedElems.Load()
	n.st.PeakPendingTiles = n.peakPendingTiles.Load()
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

// laneInit is the trace-lane index for the serial seeding phase
// (workers take 0..Threads-1, the receiver Threads).
func laneInit(cfg Config) int { return cfg.Threads + 1 }

// initLane returns the node's seeding-phase trace lane (nil untraced).
func (n *node) initLane() *obs.Lane {
	if n.cfg.Tracer == nil {
		return nil
	}
	return n.cfg.Tracer.Lane(n.id, laneInit(n.cfg), "init")
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
		n.finishOnce.Do(func() { close(n.finished) })
	}
}

// The closing collective. Every rank computes the same tiling, balance
// and ownership — all are deterministic functions of the spec and
// parameters — so the only coordination between ranks is the edge
// traffic itself plus the fixed collective sequence below that merges
// the per-rank results. The merge moves values without arithmetic on
// them (the goal value is selected, not reduced), so a run is
// bit-identical over every transport and node count.

// mergedResult is the outcome of the collective result merge.
type mergedResult struct {
	goal, max       float64
	messages, elems int64
}

// merge runs the fixed collective sequence that combines per-rank
// results: the goal-executed census (which no rank leaves before every
// rank has finished its tiles and entered, so it is the barrier too),
// the goal-value selection, the global max (this rank's fold, read
// after its finish), and the traffic totals. The goal value crosses
// ranks via a selecting reduction — the owner contributes its value,
// everyone else NaN, and the first non-NaN wins — so no floating-point
// arithmetic touches it.
func (n *node) merge() (*mergedResult, error) {
	tr := n.rank
	n.mu.Lock()
	goalSet, goalVal := n.goalSet, n.goalVal
	n.mu.Unlock()

	sum := func(a, b float64) float64 { return a + b }
	executed := 0.0
	if goalSet {
		executed = 1
	}
	count, err := tr.AllReduce(executed, sum)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		// All ranks observe the same census, so all fail identically.
		return nil, fmt.Errorf("goal tile %v never executed on any rank", n.prep.goalTile)
	}

	contrib := math.NaN()
	if goalSet {
		contrib = goalVal
	}
	goal, err := tr.AllReduce(contrib, selectNonNaN)
	if err != nil {
		return nil, err
	}

	contrib = math.NaN()
	if localMax := n.cellMax(); localMax.set {
		contrib = localMax.max
	}
	max, err := tr.AllReduce(contrib, maxIgnoringNaN)
	if err != nil {
		return nil, err
	}

	msgs, elems := tr.Stats()
	tmsgs, err := tr.AllReduce(float64(msgs), sum)
	if err != nil {
		return nil, err
	}
	telems, err := tr.AllReduce(float64(elems), sum)
	if err != nil {
		return nil, err
	}
	return &mergedResult{
		goal:     goal,
		max:      max,
		messages: int64(tmsgs),
		elems:    int64(telems),
	}, nil
}

// selectNonNaN keeps the first non-NaN operand: the reduction that
// broadcasts the goal owner's value without arithmetic on it.
func selectNonNaN(a, b float64) float64 {
	if !math.IsNaN(a) {
		return a
	}
	return b
}

// maxIgnoringNaN is max over the ranks that computed any cells
// (non-participants contribute NaN).
func maxIgnoringNaN(a, b float64) float64 {
	switch {
	case math.IsNaN(a):
		return b
	case math.IsNaN(b):
		return a
	case b > a:
		return b
	default:
		return a
	}
}
