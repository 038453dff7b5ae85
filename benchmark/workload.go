package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// threads is the total worker count of every workload, fixed regardless
// of the host so that counts and ratios compare across machines.
const threads = 2

// A bench is one workload bound to its seeded inputs.
type bench interface {
	// setUp performs one cold set-up, from spec text to an instance
	// that can answer: what a user pays before the first answer.
	setUp(sp *spans, parent spanID) (instance, error)
}

// An instance is a set-up workload. floor and solve return one answer
// per operation, in the same order; they must agree bit for bit.
type instance interface {
	floor() []float64
	// solve runs the system under test and reports the wall time from
	// prepared inputs to its answers; what a workload must rebuild before
	// it can solve again (a mesh, a fresh server) it rebuilds outside
	// that interval. A non-nil lay asks for the traced variant (the
	// layer's own tracer and counters on) and receives what it counted.
	solve(sp *spans, parent spanID, lay layers) (answers []float64, took time.Duration, err error)
	// probe measures, once, layer costs that a solve does not expose.
	probe(sp *spans, parent spanID, lay layers) error
	// cells is the number of DP cells one solve computes.
	cells() int64
	close()
}

type workload struct {
	name string
	why  string
	// floorNominal is what the workload's floor takes on the reference
	// host (a 2.1 GHz Xeon VM, in its fast phase), in seconds. It is a
	// frozen constant that turns set-up time measured in floors into
	// setup_s; see runTimed.
	floorNominal float64
	build        func(env *environment) (bench, error)
}

// environment is what a run is given: where the repository is, where it
// may write, the seed, and the reduced size of -quick.
type environment struct {
	root    string // checkout root: holds specs/ and BENCHMARK.json
	scratch string // a directory of this run's own, under the root's .bench_build
	seed    uint64
	quick   bool
}

// workloads is the catalog, in report order. BENCHMARK.json repeats the
// names and reasons; bench_test.go keeps the two in step.
var workloads = []workload{
	{"lcs2-interior", "2-D LCS of two seeded 2000-base strings, 1 node x 2 threads: 97% interior tiles and a three-compare kernel, so the per-cell kernel call and the static wavefront scheduler are the cost", 0.0145, buildLCS2},
	{"bandit2-surface", "bandit2 N=100 (4.6M cells, 4-D simplex), 1 node x 2 threads: most tiles touch the boundary, so checked arithmetic and lin.Expr.Eval dominate; an interior-only optimisation should not move it", 0.0212, buildBandit2},
	{"knap-range", "knap N=1000 C=4000 W=3 in 62625 8x8 tiles, 1 thread: range templates, footprint unpack and tiles/s of the dynamic scheduler carry the cost", 0.0182, buildKnap},
	{"bandit2-tcp2", "bandit2 N=100 on 2 ranks x 1 thread over mpi/tcp loopback: pack/unpack, send stall, receive wait and mesh set-up show here and nowhere else", 0.0212, buildBandit2TCP},
	{"bandit2-generated", "specs/bandit2.dps through codegen.Generate and go build, run as a process with -N 100 -threads 2: the paper's deliverable, bypasses internal/engine, same cells and floor as bandit2-surface", 0.0212, buildGenerated},
	{"serve-mix", "fresh serve.Server per round, 2 closed-loop clients, seeded mix of 65% run-miss, 25% memo-hit, 10% compile-miss on a triangular spec: canonicalise, LRU, singleflight, admission and Prepared.Run", 0.0054, buildServe},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names a metric and its unit; bound, for an end-to-end
// metric, is the share of the parent's median by which it may worsen.
type metricDef struct {
	name, unit string
	bound      float64
}

// endToEnd are the gated metrics, printed by the timed pass; lower is
// better for both.
var endToEnd = []metricDef{
	{name: "overhead_x", unit: "x", bound: 0.25},
	{name: "setup_s", unit: "s", bound: 0.25},
}

// perLayer are the metrics of single layers, printed by the traced
// pass. Every duration here is measured on every workload; a layer a
// workload does not exercise reports its counts, rates and shares as 0.
// Durations that exist for one workload only (dial, go build, request
// latency by class) are in the report's "extra" section instead.
var perLayer = []metricDef{
	// harness
	{name: "floor_ms", unit: "ms"}, {name: "solve_ms", unit: "ms"}, {name: "ns_per_cell", unit: "ns/cell"},
	{name: "harness_self_ms", unit: "ms"}, {name: "peak_rss_mb", unit: "MB"},
	// spec, tiling, balance + engine.Prepare
	{name: "parse_ms", unit: "ms"}, {name: "analyze_ms", unit: "ms"}, {name: "prepare_ms", unit: "ms"},
	{name: "pack_melems_per_s", unit: "Melem/s"}, {name: "unpack_melems_per_s", unit: "Melem/s"},
	// engine (or the generated program's own runtime)
	{name: "run_ms", unit: "ms"}, {name: "cells", unit: "count"}, {name: "tiles", unit: "count"}, {name: "static_tiles", unit: "count"},
	{name: "steals", unit: "count"}, {name: "tiles_per_s", unit: "1/s"}, {name: "peak_buffered_elems", unit: "count"}, {name: "nofast_x", unit: "x"},
	{name: "kernel_pct", unit: "%"}, {name: "unpack_pct", unit: "%"}, {name: "pack_pct", unit: "%"}, {name: "idle_pct", unit: "%"}, {name: "send_stall_pct", unit: "%"},
	// mpi and mpi/tcp
	{name: "messages", unit: "count"}, {name: "wire_bytes", unit: "B"},
	{name: "mem_rt_per_s", unit: "1/s"}, {name: "mem_msgs_per_s", unit: "1/s"}, {name: "mem_mb_per_s", unit: "MB/s"},
	{name: "tcp_rt_per_s", unit: "1/s"}, {name: "tcp_msgs_per_s", unit: "1/s"}, {name: "tcp_mb_per_s", unit: "MB/s"},
	{name: "raw_rt_per_s", unit: "1/s"}, {name: "raw_msgs_per_s", unit: "1/s"}, {name: "raw_mb_per_s", unit: "MB/s"},
	// engine checkpoint
	{name: "checkpoints", unit: "count"}, {name: "ckpt_bytes", unit: "B"}, {name: "ckpt_overhead_x", unit: "x"},
	// codegen
	{name: "gen_bytes", unit: "B"},
	// serve
	{name: "memo_hits", unit: "count"}, {name: "run_misses", unit: "count"}, {name: "compile_misses", unit: "count"},
	{name: "coalesced", unit: "count"}, {name: "shed", unit: "count"},
	// obs
	{name: "trace_overhead_x", unit: "x"},
}

// layers collects per-layer samples during a traced pass. A metric's
// reported value is the median of its samples, so a count that repeats
// exactly reports itself.
type layers map[string][]float64

func (l layers) add(name string, v float64) { l[name] = append(l[name], v) }

func (l layers) value(name string) float64 { return median(l[name]) }

// result is one run of one workload: what the contract's last line and
// the suite's report are made from.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Rounds    int                `json:"rounds"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	FailShare float64            `json:"fail_share"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Extra holds the numbers printed for people and never gated: raw
	// times, and layer durations that exist on this workload only.
	Extra map[string]float64 `json:"extra,omitempty"`
	// Samples are the timed pass's per-round and per-set-up raw values.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

// round times the floor and the system back to back — in alternating
// order, so neither always runs on the warmer cache — and verifies every
// answer against the floor bit for bit.
type roundTimes struct {
	floor, solve time.Duration
	ops, bad     int
}

// floorReps is how many times a round runs the floor, taking the median:
// the floor is ten or more times shorter than the solve it divides, so
// one descheduling would otherwise move the ratio by as much.
const floorReps = 5

// timeFloor runs the floor floorReps times and returns the median time
// and the answers.
func timeFloor(in instance) (time.Duration, []float64) {
	var took, want []float64
	for i := 0; i < floorReps; i++ {
		t0 := time.Now()
		want = in.floor()
		took = append(took, float64(time.Since(t0)))
	}
	return time.Duration(median(took)), want
}

func timeRound(in instance, sp *spans, parent spanID, lay layers, floorFirst bool) (roundTimes, error) {
	var rt roundTimes
	var want, got []float64
	var err error
	runFloor := func() {
		runtime.GC()
		id := sp.begin("floor", parent)
		rt.floor, want = timeFloor(in)
		sp.end(id)
	}
	runSolve := func() {
		runtime.GC()
		id := sp.begin("solve", parent)
		got, rt.solve, err = in.solve(sp, id, lay)
		sp.end(id)
	}
	if floorFirst {
		runFloor()
		runSolve()
	} else {
		runSolve()
		runFloor()
	}
	rt.ops = len(want)
	if err != nil {
		rt.bad = rt.ops
		return rt, err
	}
	if len(got) != len(want) {
		rt.bad = rt.ops
		return rt, fmt.Errorf("%d answers, floor has %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			rt.bad++
			if err == nil {
				err = fmt.Errorf("answer %d is %v, floor says %v", i, got[i], want[i])
			}
		}
	}
	return rt, err
}

// minRounds is the least number of timed rounds in a pass, whatever
// -seconds says; minSetUps and maxSetUps bound the cold set-ups behind
// one setup_s.
const (
	minRounds   = 3
	minSetUps   = 5
	maxSetUps   = 50
	setUpBudget = 2 * time.Second
)

// runTimed is the pass with tracing off: the end-to-end metrics.
func runTimed(w *workload, env *environment, seconds float64) (*result, error) {
	b, err := w.build(env)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Seed: env.seed, Seconds: seconds, Correct: true}

	// Cold set-ups, for at least minSetUps and then until setUpBudget is
	// spent, so a set-up of milliseconds gets as steady a median as one
	// of half a second. Each is divided by the floor timed right after
	// it, and setup_s is the median of those ratios times floorNominal:
	// set-up seconds at the reference host's speed. Raw wall seconds
	// follow the shared host's slow and fast phases — two sets of ten runs
	// minutes apart differed by up to 38 % in their medians — where the
	// paired ratio differed by 5 %, and the gate on setup_s is there to
	// show work moved into set-up, not the neighbours' load.
	var setupWall, setupFloor []float64
	var in instance
	start := time.Now()
	for len(setupWall) < minSetUps || (time.Since(start) < setUpBudget && len(setupWall) < maxSetUps) {
		if in != nil {
			in.close()
		}
		runtime.GC()
		t0 := time.Now()
		if in, err = b.setUp(nil, noSpan); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupWall = append(setupWall, time.Since(t0).Seconds())
		fl, _ := timeFloor(in)
		setupFloor = append(setupFloor, fl.Seconds())
		if env.quick {
			break
		}
	}
	defer in.close()

	// One untimed round lets pools, page tables and lazy nests fill.
	if _, err := timeRound(in, nil, noSpan, nil, true); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}

	var ratios, solveMS, floorMS []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		rt, err := timeRound(in, nil, noSpan, nil, r%2 == 0)
		res.Attempted += rt.ops
		res.Failed += rt.bad
		if err != nil {
			res.Correct = false
			fmt.Printf("round %d: %v\n", r, err)
			continue
		}
		ratios = append(ratios, float64(rt.solve)/float64(rt.floor))
		solveMS = append(solveMS, float64(rt.solve)/1e6)
		floorMS = append(floorMS, float64(rt.floor)/1e6)
		if env.quick {
			break
		}
	}
	if len(ratios) == 0 {
		return nil, fmt.Errorf("no round succeeded")
	}
	res.Rounds = len(ratios)
	res.FailShare = float64(res.Failed) / float64(res.Attempted)
	setupS := make([]float64, len(setupWall))
	for i := range setupS {
		setupS[i] = setupWall[i] / setupFloor[i] * w.floorNominal
	}
	res.EndToEnd = map[string]summary{
		"overhead_x": summarize(ratios),
		"setup_s":    summarize(setupS),
	}
	res.Samples = map[string][]float64{"floor_ms": floorMS, "solve_ms": solveMS, "setup_wall_s": setupWall, "setup_floor_s": setupFloor}
	solve := median(solveMS)
	res.Extra = map[string]float64{
		"solve_ms":     solve,
		"floor_ms":     median(floorMS),
		"mcells_per_s": float64(in.cells()) / solve / 1e3,
		"setup_wall_s": median(setupWall),
	}
	return res, nil
}

// runTraced is the separate traced pass: the per-layer metrics. Each
// round times the floor, an untraced solve and a traced solve, so
// trace_overhead_x compares the two within one process.
func runTraced(w *workload, env *environment, seconds float64, sp *spans) (*result, error) {
	b, err := w.build(env)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Traced: true, Seed: env.seed, Seconds: seconds, Correct: true}
	lay := layers{}

	root := sp.begin("traced-pass", noSpan)
	nSetUps := 2
	if env.quick {
		nSetUps = 1
	}
	var in instance
	for i := 0; i < nSetUps; i++ {
		if in != nil {
			in.close()
		}
		runtime.GC()
		id := sp.begin("set-up", root)
		in, err = b.setUp(sp, id)
		sp.end(id)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer in.close()

	if _, err := timeRound(in, nil, noSpan, nil, true); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	// The probes spend part of the pass's seconds, so a traced run is no
	// longer than a timed one.
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	id := sp.begin("probe", root)
	err = in.probe(sp, id, lay)
	sp.end(id)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}

	var plain, traced []float64
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		sp.setRound(r)
		id := sp.begin("round", root)
		un := sp.begin("untraced", id)
		rtPlain, errPlain := timeRound(in, nil, noSpan, nil, r%2 == 0)
		sp.end(un)
		rtTraced, errTraced := timeRound(in, sp, id, lay, r%2 == 1)
		sp.end(id)
		res.Attempted += rtPlain.ops + rtTraced.ops
		res.Failed += rtPlain.bad + rtTraced.bad
		if errPlain != nil || errTraced != nil {
			res.Correct = false
			fmt.Printf("round %d: %v %v\n", r, errPlain, errTraced)
			continue
		}
		plain = append(plain, float64(rtPlain.solve)/float64(rtPlain.floor))
		traced = append(traced, float64(rtTraced.solve)/float64(rtTraced.floor))
		lay.add("floor_ms", float64(rtPlain.floor)/1e6)
		lay.add("solve_ms", float64(rtPlain.solve)/1e6)
		if env.quick {
			break
		}
	}
	sp.setRound(-1)
	sp.end(root)
	if len(plain) == 0 {
		return nil, fmt.Errorf("no round succeeded")
	}
	res.Rounds = len(plain)
	res.FailShare = float64(res.Failed) / float64(res.Attempted)

	lay.add("trace_overhead_x", median(traced)/median(plain))
	lay.add("ns_per_cell", lay.value("solve_ms")*1e6/float64(in.cells()))
	lay.add("cells", float64(in.cells()))
	// Time inside the measured intervals that no layer call covers —
	// what the harness itself adds — per set-up or traced solve.
	lay.add("harness_self_ms", (sp.selfMS("set-up")+sp.selfMS("solve"))/float64(len(sp.ms("set-up"))+len(sp.ms("solve"))))
	lay.add("peak_rss_mb", peakRSSMB())

	res.PerLayer = map[string]float64{}
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.name] = true
		res.PerLayer[m.name] = lay.value(m.name)
	}
	res.Extra = map[string]float64{"overhead_x_traced": median(traced), "overhead_x_plain": median(plain)}
	for name := range lay {
		if !declared[name] {
			res.Extra[name] = lay.value(name)
		}
	}
	return res, nil
}

// peakRSSMB is the larger of this process's and its waited-for
// children's peak resident set, from rusage (kilobytes on Linux).
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)     // cannot fail with a valid who
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) // likewise
	return float64(max(self.Maxrss, kids.Maxrss)) / 1024
}
