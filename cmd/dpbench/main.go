// Command dpbench regenerates every measurable result of the paper's
// evaluation: the correctness of the generated solvers (Fig 1/Sec II),
// load-balance quality (Fig 2), loop synthesis (Fig 3), the
// priority-vs-memory behaviour (Figs 4-5), shared-memory scaling
// (Fig 6), weak scaling across nodes (Fig 7), the tile-width and
// buffer-count sweeps (Sec VI-C), the initial-tile-generation cost claim
// (Sec IV-K), the pending-memory claim (Sec V-B), and the hyperplane
// load balancer (Fig 8).
//
// The scaling experiments run on the deterministic cluster simulator
// (see dpgen/internal/simsched) because this reproduction has no
// 24-core nodes; correctness and memory experiments run on the real
// in-process hybrid runtime.
//
// Usage:
//
//	dpbench -exp all          # everything (about 16 s on a 2-CPU host)
//	dpbench -exp fig6,fig7    # a subset
//	dpbench -exp all -quick   # smaller instances (under a second)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

type experiment struct {
	id   string
	desc string
	run  func(quick bool)
}

var experiments = []experiment{
	{"fig1", "Sec II/Fig 1: generated solvers match serial references exactly", expFig1},
	{"fig2", "Fig 2: Ehrhart load balancing across 3 nodes; 2 dims vs 1", expFig2},
	{"fig3", "Fig 3: synthesized loop nests and generated tile code", expFig3},
	{"fig45", "Figs 4-5: tile priority vs peak buffered edges", expFig45},
	{"fig6", "Fig 6: shared-memory scaling, 1..24 cores", expFig6},
	{"fig7", "Fig 7: weak scaling, 1..8 nodes x 24 cores", expFig7},
	{"tilesweep", "Sec VI-C: tile width sweep (pipeline starvation)", expTileSweep},
	{"bufsweep", "Sec VI-C: send-buffer count sweep", expBufSweep},
	{"prio", "Sec V-B: priority policy and key orientation", expPrio},
	{"inittiles", "Sec IV-K: serial initial tile generation < 0.5% of runtime", expInitTiles},
	{"pending", "Sec V-B: pending-edge memory is O(n^(d-1))", expPending},
	{"fig8", "Fig 8/Sec VII-B: hyperplane vs prefix load balancing", expFig8},
}

func main() {
	var (
		expFlag = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		quick   = flag.Bool("quick", false, "smaller instances for a fast pass")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		metrics = flag.String("metrics", "", "directory for per-run metrics snapshots (<exp>-<n>.json and .prom) of the runtime experiments")
	)
	flag.Parse()
	if *metrics != "" {
		if err := os.MkdirAll(*metrics, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "dpbench: %v\n", err)
			os.Exit(1)
		}
		metricsDir = *metrics
	}

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-10s %s\n", e.id, e.desc)
		}
		return
	}
	want := map[string]bool{}
	all := *expFlag == "all"
	for _, id := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(id)] = true
	}
	ran := 0
	for _, e := range experiments {
		if !all && !want[e.id] {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.id, e.desc)
		setMetricsExp(e.id)
		e.run(*quick)
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "dpbench: no experiment matched %q; use -list\n", *expFlag)
		os.Exit(2)
	}
}

func pick(quick bool, q, full int64) int64 {
	if quick {
		return q
	}
	return full
}
