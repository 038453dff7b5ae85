package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dpgen/internal/engine"
	"dpgen/internal/problems"
	"dpgen/internal/tiling"
	"dpgen/internal/workload"
)

// The -bench-json mode measures engine throughput (ns/cell) for every
// builtin problem at fixed configurations and writes a machine-readable
// snapshot. The committed BENCH_engine.json seeds the perf trajectory:
// regenerate with
//
//	go run ./cmd/dpbench -bench-json BENCH_engine.json
//
// and compare against a previous snapshot with -bench-against.

type benchRow struct {
	Problem     string  `json:"problem"`
	Params      []int64 `json:"params"`
	Nodes       int     `json:"nodes"`
	Threads     int     `json:"threads"`
	Cells       int64   `json:"cells"`
	NsPerCell   float64 `json:"ns_per_cell"`
	CellsPerSec float64 `json:"cells_per_sec"`
	// SpeedupVsT1 relates this row's throughput to the same-snapshot
	// single-thread row of the same problem (thread-scaling
	// within one machine and run, not across snapshots).
	SpeedupVsT1 float64 `json:"speedup_vs_t1,omitempty"`
	// BaselineNsPerCell and Speedup are filled when -bench-against
	// provides an older snapshot with a matching row.
	BaselineNsPerCell float64 `json:"baseline_ns_per_cell,omitempty"`
	Speedup           float64 `json:"speedup,omitempty"`
}

type benchSnapshot struct {
	Schema  string     `json:"schema"`
	Go      string     `json:"go"`
	Date    string     `json:"date"`
	Reps    int        `json:"reps"`
	Results []benchRow `json:"results"`
}

// benchCase is one (problem, params, config) measurement target.
type benchCase struct {
	name    string
	prob    *problems.Problem
	params  []int64
	nodes   int
	threads int
}

// benchCases lists the fixed configurations of the snapshot: every
// builtin single-node single-thread at its default params (the pure
// per-cell overhead), plus paper-scale bandit2 and lcs2 rows swept
// back-to-back over the requested thread counts (the Section VI
// quantities and the thread-scaling trajectory).
func benchCases(threads []int) []benchCase {
	var cases []benchCase
	for _, name := range problems.Names() {
		p, err := problems.Get(name)
		if err != nil {
			panic(err)
		}
		cases = append(cases, benchCase{name: name, prob: p, params: p.DefaultParams, nodes: 1, threads: 1})
	}
	b2 := problems.Bandit2()
	l2 := problems.LCS2(workload.DNA(2000, 9), workload.DNA(2000, 10))
	for _, th := range threads {
		cases = append(cases, benchCase{name: "bandit2@paper", prob: b2, params: []int64{100}, nodes: 1, threads: th})
		cases = append(cases, benchCase{name: "lcs2@paper", prob: l2, params: l2.DefaultParams, nodes: 1, threads: th})
	}
	return cases
}

func runBenchJSON(out, against string, threads []int, minScaling string) error {
	const reps = 3
	var prev map[string]benchRow
	if against != "" {
		raw, err := os.ReadFile(against)
		if err != nil {
			return err
		}
		var old benchSnapshot
		if err := json.Unmarshal(raw, &old); err != nil {
			return fmt.Errorf("parsing %s: %w", against, err)
		}
		prev = map[string]benchRow{}
		for _, r := range old.Results {
			prev[fmt.Sprintf("%s/%d/%d", r.Problem, r.Nodes, r.Threads)] = r
		}
	}

	snap := benchSnapshot{
		Schema: "dpgen-bench-engine/v1",
		Go:     runtime.Version(),
		Date:   time.Now().UTC().Format("2006-01-02"),
		Reps:   reps,
	}
	for _, c := range benchCases(threads) {
		tl, err := tiling.New(c.prob.Spec)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		cfg := engine.Config{Nodes: c.nodes, Threads: c.threads}
		var cells int64
		best := time.Duration(0)
		// One warmup run, then best-of-reps wall time around engine.Run.
		for rep := 0; rep <= reps; rep++ {
			t0 := time.Now()
			res, err := engine.Run(tl, c.prob.Kernel, c.params, cfg)
			el := time.Since(t0)
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			cells = 0
			for _, st := range res.Stats {
				cells += st.CellsComputed
			}
			if rep > 0 && (best == 0 || el < best) {
				best = el
			}
		}
		row := benchRow{
			Problem: c.name, Params: c.params, Nodes: c.nodes, Threads: c.threads,
			Cells:       cells,
			NsPerCell:   float64(best.Nanoseconds()) / float64(cells),
			CellsPerSec: float64(cells) / best.Seconds(),
		}
		if prev != nil {
			if old, ok := prev[fmt.Sprintf("%s/%d/%d", row.Problem, row.Nodes, row.Threads)]; ok {
				row.BaselineNsPerCell = old.NsPerCell
				row.Speedup = old.NsPerCell / row.NsPerCell
			}
		}
		snap.Results = append(snap.Results, row)
		fmt.Printf("%-16s params=%v nodes=%d threads=%d  %8.1f ns/cell  %10.2f Mcells/s",
			row.Problem, row.Params, row.Nodes, row.Threads, row.NsPerCell, row.CellsPerSec/1e6)
		if row.Speedup > 0 {
			fmt.Printf("  %.2fx vs baseline", row.Speedup)
		}
		fmt.Println()
	}
	fillSpeedupVsT1(snap.Results)
	raw, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", out, len(snap.Results))
	return checkMinScaling(snap.Results, minScaling)
}

// fillSpeedupVsT1 relates every multi-threaded row to its same-run
// single-thread counterpart (same problem and nodes), giving
// the within-snapshot thread-scaling curve.
func fillSpeedupVsT1(rows []benchRow) {
	t1 := map[string]float64{}
	for _, r := range rows {
		if r.Threads == 1 {
			t1[r.Problem] = r.NsPerCell
		}
	}
	for i := range rows {
		r := &rows[i]
		if r.Threads == 1 {
			continue
		}
		if base, ok := t1[r.Problem]; ok && r.NsPerCell > 0 {
			r.SpeedupVsT1 = base / r.NsPerCell
			fmt.Printf("%-16s t%d vs t1: %.2fx\n", r.Problem, r.Threads, r.SpeedupVsT1)
		}
	}
}

// checkMinScaling enforces "-min-scaling case=ratio,..." assertions: the
// named problem's highest-thread row must reach the given speedup over
// its single-thread row. A row whose thread count exceeds the machine's
// CPU count cannot physically scale, so such assertions are reported and
// skipped rather than failed (the committed snapshot stays honest on
// small builders; the gate bites on real multi-core hosts).
func checkMinScaling(rows []benchRow, spec string) error {
	if spec == "" {
		return nil
	}
	for _, item := range strings.Split(spec, ",") {
		name, ratioStr, ok := strings.Cut(strings.TrimSpace(item), "=")
		if !ok {
			return fmt.Errorf("bad -min-scaling entry %q (want problem=ratio)", item)
		}
		ratio, err := strconv.ParseFloat(ratioStr, 64)
		if err != nil {
			return fmt.Errorf("bad -min-scaling ratio in %q: %v", item, err)
		}
		var best *benchRow
		for i := range rows {
			r := &rows[i]
			if r.Problem == name && r.Threads > 1 && (best == nil || r.Threads > best.Threads) {
				best = r
			}
		}
		if best == nil {
			return fmt.Errorf("-min-scaling %s: no multi-threaded row for that problem", name)
		}
		if runtime.NumCPU() < best.Threads {
			fmt.Printf("min-scaling %s: SKIP (t%d needs >=%d CPUs, host has %d)\n",
				name, best.Threads, best.Threads, runtime.NumCPU())
			continue
		}
		if best.SpeedupVsT1 < ratio {
			return fmt.Errorf("min-scaling %s: t%d speedup %.2fx below required %.2fx",
				name, best.Threads, best.SpeedupVsT1, ratio)
		}
		fmt.Printf("min-scaling %s: OK (t%d %.2fx >= %.2fx)\n", name, best.Threads, best.SpeedupVsT1, ratio)
	}
	return nil
}
