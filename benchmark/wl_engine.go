package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dpgen/internal/engine"
	"dpgen/internal/obs"
	"dpgen/internal/problems"
	"dpgen/internal/serve"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
	inputs "dpgen/internal/workload"
)

// engineBench is a single-process workload on internal/engine: spec text
// is parsed, analysed and prepared in set-up, and a solve is one
// Prepared.Run.
type engineBench struct {
	specText string
	kernel   engine.Kernel
	params   []int64
	threads  int
	// floorFn is the serial floor over two rolling buffers of floorRow.
	floorFn  func(cur, next []float64) float64
	floorRow int
	nCells   int64
}

// bandit2Row is the length of one of floorBandit2's two rolling slabs.
func bandit2Row(N int64) int { return int((N + 2) * (N + 2) * (N + 2)) }

// bandit2Cells is the number of points of the simplex s1+f1+s2+f2 <= N.
func bandit2Cells(N int64) int64 { return (N + 1) * (N + 2) * (N + 3) * (N + 4) / 24 }

func readSpec(env *environment, name string) (string, error) {
	text, err := os.ReadFile(filepath.Join(env.root, "specs", name))
	if err != nil {
		return "", fmt.Errorf("the benchmark reads the repository's spec files: %w", err)
	}
	return string(text), nil
}

func buildLCS2(env *environment) (bench, error) {
	n := 2000
	if env.quick {
		n = 300
	}
	a, b := inputs.DNA(n, env.seed), inputs.DNA(n, env.seed+1)
	p := problems.LCS2(a, b)
	return &engineBench{
		// lcs2 has no spec file; its canonical text parses back to an
		// equivalent spec, so set-up pays for a parse like the others.
		specText: serve.Canonicalize(p.Spec),
		kernel:   p.Kernel,
		params:   []int64{int64(n), int64(n)},
		threads:  threads,
		floorFn:  func(cur, next []float64) float64 { return floorLCS(a, b, cur, next) },
		floorRow: n + 1,
		nCells:   int64(n+1) * int64(n+1),
	}, nil
}

// bandit2N is the bandit2 size shared by the three bandit2 workloads,
// so their overhead_x values are over the same cells and floor.
func bandit2N(env *environment) int64 {
	if env.quick {
		return 30
	}
	return 100
}

func buildBandit2(env *environment) (bench, error) {
	text, err := readSpec(env, "bandit2.dps")
	if err != nil {
		return nil, err
	}
	N := bandit2N(env)
	return &engineBench{
		specText: text,
		kernel:   problems.Bandit2().Kernel,
		params:   []int64{N},
		threads:  threads,
		floorFn:  func(cur, next []float64) float64 { return floorBandit2(N, cur, next) },
		floorRow: bandit2Row(N),
		nCells:   bandit2Cells(N),
	}, nil
}

func buildKnap(env *environment) (bench, error) {
	text, err := readSpec(env, "knap.dps")
	if err != nil {
		return nil, err
	}
	N, C, W := int64(1000), int64(4000), int64(3)
	if env.quick {
		N, C = 100, 400
	}
	return &engineBench{
		specText: text,
		kernel:   problems.Knapsack().Kernel,
		params:   []int64{N, C, W},
		// One worker: with the static phase off, every tile goes through
		// the dynamic scheduler, which is what this workload is for.
		threads:  1,
		floorFn:  func(cur, next []float64) float64 { return floorKnap(N, C, W, cur, next) },
		floorRow: int(C + 1),
		nCells:   N * (C + 1),
	}, nil
}

// analyze is the set-up shared by every workload that runs on the
// engine: parse the text, run the polyhedral analysis, and prepare the
// load balance and initial tiles for nodes ranks.
func analyze(sp *spans, parent spanID, text string, params []int64, nodes int) (*engine.Prepared, error) {
	id := sp.begin("spec.Parse", parent)
	s, err := spec.Parse(text)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	id = sp.begin("tiling.New", parent)
	tl, err := tiling.New(s)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	id = sp.begin("engine.Prepare", parent)
	prep, err := engine.Prepare(tl, params, nodes, engine.Config{}.Balance)
	sp.end(id)
	return prep, err
}

func (b *engineBench) setUp(sp *spans, parent spanID) (instance, error) {
	prep, err := analyze(sp, parent, b.specText, b.params, 1)
	if err != nil {
		return nil, err
	}
	return &engineInst{b: b, prep: prep, cur: make([]float64, b.floorRow), next: make([]float64, b.floorRow)}, nil
}

type engineInst struct {
	b         *engineBench
	prep      *engine.Prepared
	cur, next []float64 // the floor's rolling buffers
}

func (in *engineInst) floor() []float64 { return []float64{in.b.floorFn(in.cur, in.next)} }
func (in *engineInst) cells() int64     { return in.b.nCells }
func (in *engineInst) close()           {}

func (in *engineInst) solve(sp *spans, parent spanID, lay layers) ([]float64, time.Duration, error) {
	cfg := engine.Config{Threads: in.b.threads}
	if lay != nil {
		cfg.Tracer = newEngineTracer()
	}
	id := sp.begin("engine.Run", parent)
	t0 := time.Now()
	res, err := in.prep.Run(in.b.kernel, cfg)
	took := time.Since(t0)
	sp.end(id)
	if err != nil {
		return nil, 0, err
	}
	if lay != nil {
		recordEngine(sp, parent, lay, []*engine.Result{res}, []*obs.Tracer{cfg.Tracer}, in.b.threads)
	}
	return []float64{res.Value}, took, nil
}

func (in *engineInst) probe(sp *spans, parent spanID, lay layers) error {
	recordSetUp(sp, lay)
	probePack(sp, parent, lay, in.prep.Tiling())

	// The exact boundary-tile machinery on every tile, against the
	// default run: what the interior fast path is worth here.
	want := in.floor()[0]
	timeRun := func(name string, cfg engine.Config) (time.Duration, error) {
		id := sp.begin(name, parent)
		t0 := time.Now()
		res, err := in.prep.Run(in.b.kernel, cfg)
		d := time.Since(t0)
		sp.end(id)
		if err == nil && res.Value != want {
			err = fmt.Errorf("%s: value %v differs from the floor's %v", name, res.Value, want)
		}
		return d, err
	}
	fast, err := timeRun("engine.Run", engine.Config{Threads: in.b.threads})
	if err != nil {
		return err
	}
	slow, err := timeRun("engine.Run nofast", engine.Config{Threads: in.b.threads, DisableFastPath: true})
	if err != nil {
		return err
	}
	lay.add("nofast_x", float64(slow)/float64(fast))
	return nil
}

// newEngineTracer sizes the per-lane ring for knap-range's 62625 tiles
// on one worker, which the default capacity would overwrite.
func newEngineTracer() *obs.Tracer { return obs.NewTracerCap(1 << 21) }

// recordSetUp turns the set-up spans into the per-layer set-up metrics.
func recordSetUp(sp *spans, lay layers) {
	lay.add("parse_ms", median(sp.ms("spec.Parse")))
	lay.add("analyze_ms", median(sp.ms("tiling.New")))
	lay.add("prepare_ms", median(sp.ms("engine.Prepare")))
}

// recordEngine folds one traced solve — one Result and Tracer per rank
// that ran in this process — into the engine and mpi layer metrics.
// Shares are of worker time: threads per rank x ranks x run time.
func recordEngine(sp *spans, parent spanID, lay layers, results []*engine.Result, tracers []*obs.Tracer, threadsPerRank int) {
	id := sp.begin("fold trace", parent) // the harness's own work, outside the timed interval
	defer sp.end(id)
	var tiles, static, steals, peak, wire int64
	var run, balance, init time.Duration
	for _, res := range results {
		for _, st := range res.Stats {
			tiles += st.TilesExecuted
			static += st.StaticTiles
			steals += st.Steals
			peak = max(peak, st.PeakBufferedElems)
			wire += st.WireBytesSent
		}
		run = max(run, res.TotalTime)
		balance = max(balance, res.BalanceTime)
		init = max(init, res.InitTime)
	}
	lay.add("run_ms", float64(run)/1e6)
	lay.add("balance_ms", float64(balance)/1e6)
	lay.add("init_ms", float64(init)/1e6)
	lay.add("tiles", float64(tiles))
	lay.add("static_tiles", float64(static))
	lay.add("steals", float64(steals))
	lay.add("tiles_per_s", float64(tiles)/run.Seconds())
	lay.add("peak_buffered_elems", float64(peak))
	lay.add("messages", float64(results[0].Messages))
	lay.add("wire_bytes", float64(wire))

	var kernel, unpack, pack, idle, stall float64
	for _, tr := range tracers {
		for _, nm := range tr.Snapshot().Metrics().Nodes {
			kernel += nm.KernelSeconds
			unpack += nm.UnpackSeconds
			pack += nm.PackSeconds
			idle += nm.IdleSeconds
			stall += nm.SendStallSeconds
		}
	}
	workerS := run.Seconds() * float64(threadsPerRank*len(results))
	for name, s := range map[string]float64{"kernel": kernel, "unpack": unpack, "pack": pack, "idle": idle, "send_stall": stall} {
		lay.add(name+"_s", s)
		lay.add(name+"_pct", 100*s/workerS)
	}
}

// probePack times tiling.PackInterior and UnpackInterior over every
// tile dependence's full edge slab, on a buffer of the workload's own
// tile shape.
func probePack(sp *spans, parent spanID, lay layers, tl *tiling.Tiling) {
	buf := make([]float64, tl.AllocLen)
	edges := make([][]float64, len(tl.TileDeps))
	var elems int64
	for j := range edges {
		edges[j] = make([]float64, tl.InteriorEdgeSize[j])
		elems += tl.InteriorEdgeSize[j]
	}
	if elems == 0 {
		return
	}
	reps := int(4e6/float64(elems)) + 1
	rate := func(name string, f func(j int)) {
		id := sp.begin(name, parent)
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for j := range edges {
				f(j)
			}
		}
		lay.add(name, float64(elems)*float64(reps)/time.Since(t0).Seconds()/1e6)
		sp.end(id)
	}
	rate("pack_melems_per_s", func(j int) { tl.PackInterior(j, buf, edges[j]) })
	rate("unpack_melems_per_s", func(j int) { tl.UnpackInterior(j, buf, edges[j]) })
}
