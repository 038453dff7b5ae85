// Package dpgen is an automatic generator of hybrid parallel programs
// for multidimensional dynamic programming problems with template
// dependencies, reproducing VandenBerg & Stout, "Automatic Hybrid
// OpenMP + MPI Program Generation for Dynamic Programming Problems"
// (IEEE CLUSTER 2011).
//
// A problem is described by a Spec: loop variables, integer parameters,
// a system of linear inequalities bounding the iteration space, constant
// template dependence vectors (f(x) depends on f(x + r)), a loop order,
// tile widths, and load-balancing dimensions. From a Spec, dpgen can
//
//   - Run the problem on the in-process hybrid runtime (worker
//     goroutines per simulated node standing in for OpenMP threads,
//     bounded channels between nodes standing in for MPI), given a Go
//     Kernel for the center loop;
//
//   - Generate a complete, self-contained Go program (stdlib-only) that
//     solves the problem — the paper's code-generation artifact — from a
//     spec whose kernel is supplied as Go source text; and
//
//   - Simulate the generated program's execution on a modeled cluster
//     (cores, NICs, links) to study scaling beyond the host machine.
//
// The quickstart example:
//
//	p, _ := dpgen.Builtin("bandit2")
//	res, _ := dpgen.RunProblem(p, []int64{40}, dpgen.Config{Nodes: 4, Threads: 6})
//	fmt.Println(res.Value)
package dpgen

import (
	"fmt"
	"io"
	"os"

	"dpgen/internal/balance"
	"dpgen/internal/codegen"
	"dpgen/internal/engine"
	"dpgen/internal/mpi"
	"dpgen/internal/mpi/tcp"
	"dpgen/internal/obs"
	"dpgen/internal/problems"
	"dpgen/internal/simsched"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// Spec is a problem description (see dpgen/internal/spec for the full
// field documentation and the text input format).
type Spec = spec.Spec

// Dep is a template dependence vector.
type Dep = spec.Dep

// Kernel is the center-loop body, called with a run of Ctx.N cells
// along the innermost loop variable. It computes the first Done of them
// (Done is preset to 1, so a body that computes V[Loc] and returns is a
// complete kernel) and is offered the rest again.
type Kernel = engine.Kernel

// Ctx is the kernel's view of one run: the state array V, the current
// location Loc, the dependence locations DepLoc, validity flags
// DepValid and lengths DepLen, the loop variable and parameter values —
// all for the run's first cell — and the run itself: N cells, Loc and
// every DepLoc advancing by Step and X[Inner] by Dir from one to the
// next, validity and lengths constant throughout. N is 1 under
// Config.OnCell and Config.DisableFastPath.
type Ctx = engine.Ctx

// Config controls an in-process run: nodes, threads per node, buffer
// counts, priority policy and balance method.
type Config = engine.Config

// Result is the outcome of a run.
type Result = engine.Result

// NodeStats are per-node runtime counters.
type NodeStats = engine.NodeStats

// Priority selects the ready-tile execution order.
type Priority = engine.Priority

// Priority policies (Section V-B of the paper).
const (
	ColumnMajor = engine.ColumnMajor
	LevelSet    = engine.LevelSet
	FIFO        = engine.FIFO
)

// BalanceMethod selects the static load balancer.
type BalanceMethod = balance.Method

// Balance methods: Prefix is the paper's production balancer
// (Section IV-J); Hyperplane its future-work refinement (Section VII-B).
const (
	Prefix     = balance.Prefix
	Hyperplane = balance.Hyperplane
)

// Problem bundles a Spec with a Kernel and a serial reference solver.
type Problem = problems.Problem

// Transport is the inter-node message layer behind a run: the seam
// between the hybrid runtime and the network. Set Config.Transport to
// run this process as one rank of a distributed job; leave it nil to
// simulate Config.Nodes ranks in-process. See docs/TRANSPORT.md for
// the contract.
type Transport = mpi.Transport

// TCPOptions configures a DialTCP endpoint: buffer counts, dial
// retry/backoff and timeouts, and the Recovery fault-tolerance
// protocol. The zero value selects sensible defaults.
type TCPOptions = tcp.Options

// CheckpointConfig configures the engine's fault-tolerance checkpoints
// (Config.Checkpoint). See docs/FAULT_TOLERANCE.md.
type CheckpointConfig = engine.CheckpointConfig

// ElasticConfig enables elastic cluster membership (Config.Elastic):
// ranks join and leave a distributed run mid-flight, with live
// re-partitioning and migration of the in-flight tile state. One value
// describes the whole job: every rank gets the same one and derives its
// role (member, joiner, leaver, coordinator) from its rank. See
// docs/ELASTICITY.md.
type ElasticConfig = engine.ElasticConfig

// ScaleEvent is one entry of the elastic coordinator's scale schedule
// (ElasticConfig.ScaleAt).
type ScaleEvent = engine.ScaleEvent

// PeerDownError is the typed error a recovery-enabled transport fails
// with when a peer stays down past its timeout; it carries the dead
// peer's rank.
type PeerDownError = mpi.PeerDownError

// GenOptions configures program generation.
type GenOptions = codegen.Options

// SimConfig configures a simulated cluster run.
type SimConfig = simsched.Config

// SimResult is the outcome of a simulated run.
type SimResult = simsched.Result

// CostModel holds the simulated machine constants.
type CostModel = simsched.CostModel

// Analysis is the generation-time analysis of a spec: tile space, tile
// dependencies, validity functions, memory layout and pack/unpack scans.
type Analysis = tiling.Tiling

// NewSpec creates an empty spec with the given name, parameters and
// loop variables; add constraints and dependencies with its methods.
func NewSpec(name string, params, vars []string) (*Spec, error) {
	return spec.New(name, params, vars)
}

// ParseSpec parses the generator's text input format.
func ParseSpec(text string) (*Spec, error) { return spec.Parse(text) }

// LoadSpec reads and parses a spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dpgen: %w", err)
	}
	sp, err := spec.Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("dpgen: %s: %w", path, err)
	}
	return sp, nil
}

// Analyze runs the generation-time analysis of a spec.
func Analyze(sp *Spec) (*Analysis, error) { return tiling.New(sp) }

// Run executes a spec with the given kernel on the in-process hybrid
// runtime.
func Run(sp *Spec, kernel Kernel, params []int64, cfg Config) (*Result, error) {
	tl, err := tiling.New(sp)
	if err != nil {
		return nil, err
	}
	return engine.Run(tl, kernel, params, cfg)
}

// RunAnalyzed executes a previously analyzed spec (saves the analysis
// cost across repeated runs).
func RunAnalyzed(tl *Analysis, kernel Kernel, params []int64, cfg Config) (*Result, error) {
	return engine.Run(tl, kernel, params, cfg)
}

// RunProblem executes a built-in problem.
func RunProblem(p *Problem, params []int64, cfg Config) (*Result, error) {
	return Run(p.Spec, p.Kernel, params, cfg)
}

// Prepared is an analyzed spec additionally load-balanced for fixed
// parameter values and node count: Prepared.Run skips the balance's pass
// over the tile space, which also finds the initial tiles, on every
// execution. This is the unit dpserve's compiled-spec cache stores per
// (spec, params, nodes).
type Prepared = engine.Prepared

// Prepare builds a Prepared run front for repeated executions of one
// (analysis, params, nodes) combination. The kernel and the remaining
// Config knobs (threads, priority, tracing) stay free per run;
// Config.Nodes and Config.Balance must match what was prepared.
func Prepare(tl *Analysis, params []int64, nodes int, method BalanceMethod) (*Prepared, error) {
	return engine.Prepare(tl, params, nodes, method)
}

// DialTCP establishes this process's endpoint of a multi-process TCP
// mesh: peers[r] is rank r's listen address and rank is this process's
// index into it. It blocks until the full mesh is connected (peers may
// start in any order within the dial timeout). Pass the result as
// Config.Transport; the run takes ownership and closes it.
func DialTCP(rank int, peers []string, opts TCPOptions) (Transport, error) {
	return tcp.Dial(rank, peers, opts)
}

// DialTCPRejoin reconnects a restarted rank into a live Recovery mesh:
// it re-listens on peers[rank], identifies itself to every surviving
// rank with a REJOIN frame, and receives their retained send histories.
// Pair it with Config.Checkpoint.Resume to continue from the rank's
// last checkpoint. See docs/FAULT_TOLERANCE.md.
func DialTCPRejoin(rank int, peers []string, opts TCPOptions) (Transport, error) {
	return tcp.DialRejoin(rank, peers, opts)
}

// CheckpointPath returns the checkpoint file rank writes inside dir
// (dir/rank-<rank>.ckpt) when Config.Checkpoint is enabled.
func CheckpointPath(dir string, rank int) string {
	return engine.CheckpointPath(dir, rank)
}

// Generate emits a standalone hybrid Go program for the spec. The spec
// must carry center-loop code (Spec.KernelCode).
func Generate(sp *Spec, opts GenOptions) ([]byte, error) {
	return codegen.Generate(sp, opts)
}

// Simulate runs the spec's tile schedule on a modeled cluster and
// reports makespan, idle time and traffic.
func Simulate(sp *Spec, params []int64, cfg SimConfig) (*SimResult, error) {
	tl, err := tiling.New(sp)
	if err != nil {
		return nil, err
	}
	return simsched.Simulate(tl, params, cfg)
}

// SimulateAnalyzed simulates a previously analyzed spec.
func SimulateAnalyzed(tl *Analysis, params []int64, cfg SimConfig) (*SimResult, error) {
	return simsched.Simulate(tl, params, cfg)
}

// Builtin returns a built-in problem by name; see Builtins.
func Builtin(name string) (*Problem, error) { return problems.Get(name) }

// Builtins lists the built-in problem names: the paper's bandit
// problems and the sequence problems its introduction motivates.
func Builtins() []string { return problems.Names() }

// DefaultCostModel returns the simulator's calibrated machine constants.
func DefaultCostModel() CostModel { return simsched.DefaultCostModel() }

// Tracer records per-worker tile-lifecycle timelines during a run or a
// simulation; attach one via Config.Tracer or SimConfig.Tracer. See
// dpgen/internal/obs for the event schema.
type Tracer = obs.Tracer

// Trace is an immutable snapshot of a Tracer; it exports to Chrome
// trace-event JSON (WriteChrome) and aggregates to runtime metrics
// (Metrics).
type Trace = obs.Trace

// RunMetrics is a per-node aggregate of a Trace, exportable in
// Prometheus text-exposition format (WritePrometheus).
type RunMetrics = obs.Metrics

// PathReport is the result of a critical-path analysis over a Trace.
type PathReport = obs.PathReport

// NewTracer creates a tracer for one run.
func NewTracer() *Tracer { return obs.NewTracer() }

// ParseTrace decodes Chrome trace-event JSON previously written by
// Trace.WriteChrome — from a real run or a simulated one; the schema
// is shared.
func ParseTrace(r io.Reader) (*Trace, error) { return obs.ParseChrome(r) }

// CriticalPath replays the traced tile DAG of an analyzed spec with
// measured times and reports the longest compute+communication chain
// against the measured makespan.
func CriticalPath(tl *Analysis, tr *Trace) (*PathReport, error) {
	return obs.CriticalPath(tr, depOffsets(tl))
}

func depOffsets(tl *Analysis) [][]int64 {
	offsets := make([][]int64, len(tl.TileDeps))
	for j := range tl.TileDeps {
		offsets[j] = tl.TileDeps[j].Offset
	}
	return offsets
}

// TraceMeta is the clock-alignment metadata a distributed run stamps
// into each rank's trace file (Trace.Meta); MergeTraces aligns on it.
type TraceMeta = obs.TraceMeta

// TraceFlow is one cross-rank message arrow of a merged trace.
type TraceFlow = obs.Flow

// RunReport is the run-wide analyzer output of BuildRunReport: the
// trace's per-rank metrics and busy time, load-imbalance ratio,
// straggler tiles, edge-latency distribution and the cross-rank
// critical path.
type RunReport = obs.RunReport

// LatencyHistogram is an immutable histogram snapshot (edge latencies).
type LatencyHistogram = obs.HistogramSnapshot

// TCPNetStats is the wire-level statistics snapshot of a DialTCP
// endpoint: totals, per-peer frame/byte counters, clock-sync state and
// the live edge-latency histogram.
type TCPNetStats = tcp.NetStats

// Recovery event names delivered to TCPOptions.Observer: a peer
// declared dead, sends to it parked, the peer rejoining, and the
// retained-frame replay that completes its recovery.
const (
	ObsPeerDown = tcp.ObsPeerDown
	ObsPark     = tcp.ObsPark
	ObsRejoin   = tcp.ObsRejoin
	ObsReplay   = tcp.ObsReplay
)

// MergeTraces merges the per-rank trace files of one distributed run
// into a single clock-aligned trace with synthesized send-to-receive
// flow arrows; see docs/OBSERVABILITY.md.
func MergeTraces(traces []*Trace) (*Trace, error) { return obs.MergeRanks(traces) }

// VerifyMergedTrace checks a merged trace's invariants (alignment,
// monotonic timestamps, flow pairing — exact pairing only when strict)
// and returns the violations found, empty when sound. Recovery runs
// replay frames and must be verified with strict=false.
func VerifyMergedTrace(tr *Trace, strict bool) []string { return obs.VerifyMerged(tr, strict) }

// BuildRunReport computes the run-wide report over a (merged) trace of
// an analyzed spec; topK bounds the straggler list (<=0 means 5).
func BuildRunReport(tl *Analysis, tr *Trace, topK int) (*RunReport, error) {
	return obs.BuildReport(tr, depOffsets(tl), topK)
}

// TransportNetStats snapshots the wire-level statistics of a DialTCP
// transport; ok is false for transports without them (in-process).
func TransportNetStats(tr Transport) (TCPNetStats, bool) {
	if t, ok := tr.(interface{ NetStats() tcp.NetStats }); ok {
		return t.NetStats(), true
	}
	return TCPNetStats{}, false
}

// ServeObs starts the live observability endpoints (/metrics,
// /debug/pprof, /healthz) on addr; metrics is invoked per scrape and
// must only read concurrency-safe state. Returns the server, whose
// Addr reports the bound address (useful with port :0).
func ServeObs(addr string, metrics func(io.Writer) error) (*ObsServer, error) {
	return obs.Serve(addr, metrics)
}

// ObsServer is a live observability endpoint server (ServeObs).
type ObsServer = obs.Server
