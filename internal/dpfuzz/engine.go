package dpfuzz

import (
	"fmt"
	"sync"
	"time"

	"dpgen/internal/engine"
	"dpgen/internal/lin"
	"dpgen/internal/mpi/tcp"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// cellValue is the deterministic kernel body shared by the independent
// serial reference and the engine kernel: a mix of the coordinates and
// the per-dependence footprint values. deps[j] holds the usable
// footprint prefix of dependence j (a single value for a satisfied
// point template, possibly several for a range template, empty when
// the dependence is unsatisfied). Footprint values fold with
// geometrically decaying weights so values stay bounded along any
// dependence chain, and the fold order is the footprint order, so any
// truncation or ordering bug shows up as a bit difference. Because
// both sides call this one function, any fusion or evaluation-order
// freedom the compiler has applies identically to both, and
// bit-identity of the results is meaningful.
func cellValue(x []int64, deps [][]float64) float64 {
	v := 1.0
	for k, xv := range x {
		v += float64((int64(k+1)*31+xv*17)%23) * 0.0625
	}
	for j, dv := range deps {
		if len(dv) == 0 {
			v -= float64(j+1) * 0.125
			continue
		}
		w := 0.5 / float64(j+1)
		for _, val := range dv {
			v += val * w
			w *= 0.5
		}
	}
	return v
}

// fuzzKernel adapts cellValue to the engine's kernel contract: the
// footprint of dependence j is the DepLen[j] cells starting at
// DepLoc[j], spaced DepStride[j] apart (point dependences have length
// 1/0 and stride 0, so this collapses to the classic DepValid read). It
// is in run form — one call computes all c.N cells on offer, cell t at
// off = t*c.Step from c.Loc and every DepLoc[j], with coordinate
// X[Inner] + t*Dir — so the oracle's fast-path layers exercise the run
// contract and its DisableFastPath layer the same body at run length 1.
func fuzzKernel(ndeps int) engine.Kernel {
	return func(c *engine.Ctx) {
		var vbuf [64]float64
		var deps [8][]float64
		var xbuf [8]int64
		x := append(xbuf[:0], c.X...)
		n := c.N
		c.Done = n
		for off := int64(0); n > 0; n-- {
			vals := vbuf[:0]
			for j := 0; j < ndeps; j++ {
				start := len(vals)
				for t := int64(0); t < c.DepLen[j]; t++ {
					vals = append(vals, c.V[c.DepLoc[j]+off+t*c.DepStride[j]])
				}
				deps[j] = vals[start:len(vals):len(vals)]
			}
			c.V[c.Loc+off] = cellValue(x, deps[:ndeps])
			off += c.Step
			x[c.Inner] += c.Dir
		}
	}
}

// serialResult is the independent reference solution.
type serialResult struct {
	cells map[string]float64
	goal  float64
	max   float64
	n     int64
}

// serialSolve computes the instance with a plain recursive sweep over
// the bounding box: per-dimension directions are derived directly from
// the template signs at the run's parameter values (dependencies with
// positive components point to larger coordinates, which must
// therefore be computed first), with no tiling, no FM, and no runtime
// involved. Range templates are resolved exactly as the spec defines
// them: walk the footprint t = 0, 1, ... up to the declared count and
// stop at the first cell outside the space.
func serialSolve(sp *spec.Spec, params []int64) *serialResult {
	sys := sp.System()
	d := len(sp.Vars)
	np := len(sp.Params)
	N := params[0]
	desc := make([]bool, d)
	bases := make([][]int64, len(sp.Deps))
	dirs := make([][]int64, len(sp.Deps))
	lens := make([]lin.Expr, len(sp.Deps))
	for j := range sp.Deps {
		bases[j] = sp.BaseAt(j, params)
		dirs[j] = sp.DirAt(j, params)
		lens[j] = sp.LenExpr(j)
		for k := 0; k < d; k++ {
			if bases[j][k] > 0 || dirs[j][k] > 0 {
				desc[k] = true
			}
		}
	}
	res := &serialResult{cells: map[string]float64{}}
	vals := make([]int64, np+d)
	copy(vals, params)
	x := vals[np:]
	y := make([]int64, d)
	deps := make([][]float64, len(sp.Deps))
	first := true
	var rec func(k int)
	rec = func(k int) {
		if k == d {
			if !sys.Contains(vals) {
				return
			}
			for j := range sp.Deps {
				deps[j] = deps[j][:0]
				n := int64(1)
				if sp.Deps[j].IsRange() {
					n = lens[j].Eval(vals)
				}
				for t := int64(0); t < n; t++ {
					for kk := range y {
						y[kk] = x[kk] + bases[j][kk] + t*dirs[j][kk]
					}
					v, ok := res.cells[pointKey(y)]
					if !ok {
						break
					}
					deps[j] = append(deps[j], v)
				}
			}
			v := cellValue(x, deps)
			res.cells[pointKey(x)] = v
			res.n++
			if first || v > res.max {
				res.max = v
				first = false
			}
			return
		}
		if desc[k] {
			for v := N; v >= 0; v-- {
				x[k] = v
				rec(k + 1)
			}
		} else {
			for v := int64(0); v <= N; v++ {
				x[k] = v
				rec(k + 1)
			}
		}
	}
	rec(0)
	res.goal = res.cells[pointKey(make([]int64, d))]
	return res
}

// CheckEngine is oracle layer 4, the end-to-end differential: the
// independent serial sweep, a single-threaded engine run (compared
// cell by cell via OnCell), the threaded multi-node run with the
// instance's randomized knobs, the same run with the interior-tile
// fast path disabled, and a two-rank run over real localhost TCP
// sockets must all produce bit-identical values.
func CheckEngine(in *Instance) error {
	sp := in.Spec
	params := in.pvals(in.N)
	ref := serialSolve(sp, params)
	kernel := fuzzKernel(len(sp.Deps))

	tl, err := in.tiling()
	if err != nil {
		return fmt.Errorf("tiling.New: %w", err)
	}

	// Single-threaded engine run, compared cell by cell.
	var mu sync.Mutex
	got := make(map[string]float64, len(ref.cells))
	base, err := engine.Run(tl, kernel, params, engine.Config{
		Nodes: 1, Threads: 1,
		OnCell: func(x []int64, v float64) {
			mu.Lock()
			got[pointKey(x)] = v
			mu.Unlock()
		},
	})
	if err != nil {
		return fmt.Errorf("engine.Run (serial): %w", err)
	}
	if int64(len(got)) != ref.n {
		return fmt.Errorf("engine computed %d cells, serial reference %d", len(got), ref.n)
	}
	for k, want := range ref.cells {
		if g, ok := got[k]; !ok || g != want {
			return fmt.Errorf("cell %s: engine %.17g, serial reference %.17g", k, got[k], want)
		}
	}
	if base.Value != ref.goal {
		return fmt.Errorf("engine goal %.17g != serial reference %.17g", base.Value, ref.goal)
	}
	if base.Max != ref.max {
		return fmt.Errorf("engine max %.17g != serial reference %.17g", base.Max, ref.max)
	}

	// Threaded differential: randomized knobs, then the same with the
	// fast path disabled.
	multi := engine.Config{
		Nodes: in.Nodes, Threads: in.Threads,
		SendBufs: in.SendBufs, RecvBufs: in.RecvBufs,
		Priority: in.Priority, Balance: in.Balance,
	}
	noFast := multi
	noFast.DisableFastPath = true
	for _, c := range []struct {
		name string
		cfg  engine.Config
	}{{"threaded", multi}, {"nofastpath", noFast}} {
		name, cfg := c.name, c.cfg
		res, err := engine.Run(tl, kernel, params, cfg)
		if err != nil {
			return fmt.Errorf("engine.Run (%s): %w", name, err)
		}
		if res.Value != ref.goal || res.Max != ref.max {
			return fmt.Errorf("%s run: value %.17g max %.17g, serial reference %.17g / %.17g",
				name, res.Value, res.Max, ref.goal, ref.max)
		}
	}

	// Two-rank TCP differential over real localhost sockets. The ranks
	// share the analysis (its lazy scans are concurrency-safe), as the
	// in-process runs above already warmed it.
	results, err := runTCP(tl, kernel, params, 2, 2, in.SendBufs, in.RecvBufs, nil)
	if err != nil {
		return fmt.Errorf("tcp run: %w", err)
	}
	for r, res := range results {
		if res.Value != ref.goal || res.Max != ref.max {
			return fmt.Errorf("tcp rank %d: value %.17g max %.17g, serial reference %.17g / %.17g",
				r, res.Value, res.Max, ref.goal, ref.max)
		}
	}
	if results[0].Messages != results[1].Messages || results[0].Elems != results[1].Elems {
		return fmt.Errorf("tcp ranks disagree on merged traffic: %d/%d vs %d/%d",
			results[0].Messages, results[0].Elems, results[1].Messages, results[1].Elems)
	}
	return nil
}

// runTCP executes the analyzed spec as nranks engine.Run calls, each
// rank a goroutine with its own TCP endpoint over loopback — the
// in-process analog of separate OS processes. chaos, if non-nil,
// builds a per-rank delivery-delay hook (tcp.Options.ChaosDelay) so
// the run also covers out-of-order message arrival.
func runTCP(tl *tiling.Tiling, kernel engine.Kernel, params []int64, nranks, threads, sendBufs, recvBufs int, chaos func(rank int) func(src, tag int) time.Duration) ([]*engine.Result, error) {
	lns, peers, err := tcp.Loopback(nranks)
	if err != nil {
		return nil, err
	}
	results := make([]*engine.Result, nranks)
	errs := make([]error, nranks)
	var wg sync.WaitGroup
	for r := 0; r < nranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := tcp.Options{
				SendBufs: sendBufs, RecvBufs: recvBufs,
				DialTimeout: 15 * time.Second,
				Listener:    lns[r],
			}
			if chaos != nil {
				o.ChaosDelay = chaos(r)
			}
			tr, err := tcp.Dial(r, peers, o)
			if err != nil {
				errs[r] = err
				return
			}
			results[r], errs[r] = engine.Run(tl, kernel, params, engine.Config{
				Transport: tr,
				Threads:   threads,
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return results, nil
}
