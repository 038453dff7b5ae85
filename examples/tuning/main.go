// Performance tuning with the cluster simulator: Section VI-C of the
// paper notes that tile size, buffer counts and load-balancing
// dimensions all shift the optimum and "would require a parameter sweep
// in order to find the best values". This example runs that sweep for
// the 2-arm bandit on a modeled cluster and prints the best
// configuration — without needing the cluster.
//
// The sweep uses dpgen.DefaultCostModel's nominal machine constants.
// To tune for a real machine, calibrate CellTime (and TileOverhead)
// from the measured per-cell rates — the ns_per_cell each workload of
// `bash benchmark/run.sh` reports — and pass the adjusted model via
// SimConfig.Cost.
//
//	go run ./examples/tuning [-N 120] [-nodes 4] [-cores 24]
package main

import (
	"flag"
	"fmt"
	"log"

	"dpgen"
)

func main() {
	var (
		N     = flag.Int64("N", 120, "problem size")
		nodes = flag.Int("nodes", 4, "simulated nodes")
		cores = flag.Int("cores", 24, "cores per node")
	)
	flag.Parse()

	problem, err := dpgen.Builtin("bandit2")
	if err != nil {
		log.Fatal(err)
	}

	type config struct {
		width   int64
		lb      []string
		balance dpgen.BalanceMethod
	}
	var best config
	bestTime := -1.0

	fmt.Printf("2-arm bandit N=%d on %d nodes x %d cores (simulated)\n\n", *N, *nodes, *cores)
	fmt.Printf("%-7s %-12s %-11s %-12s %-8s\n", "width", "lb dims", "balance", "makespan", "idle")
	for _, width := range []int64{6, 9, 12, 18} {
		for _, lb := range [][]string{{"s1"}, {"s1", "f1"}} {
			for _, bal := range []dpgen.BalanceMethod{dpgen.Prefix, dpgen.Hyperplane} {
				sp := *problem.Spec // copy, then override the tunables
				sp.TileWidths = []int64{width, width, width, width}
				sp.LBDims = lb
				res, err := dpgen.Simulate(&sp, []int64{*N}, dpgen.SimConfig{
					Nodes: *nodes, Cores: *cores, Balance: bal,
				})
				if err != nil {
					log.Fatal(err)
				}
				var idle float64
				for _, f := range res.IdleFrac {
					idle += f
				}
				idle /= float64(len(res.IdleFrac))
				fmt.Printf("%-7d %-12s %-11v %-12s %5.1f%%\n",
					width, fmt.Sprint(lb), bal, fmt.Sprintf("%.4fs", res.Makespan), 100*idle)
				if bestTime < 0 || res.Makespan < bestTime {
					bestTime = res.Makespan
					best = config{width: width, lb: lb, balance: bal}
				}
			}
		}
	}
	fmt.Printf("\nbest: tile width %d, balance over %v with the %v method (%.4fs)\n",
		best.width, best.lb, best.balance, bestTime)
	fmt.Println("\nfeed the winner back into a real run or into dpgen code generation:")
	fmt.Printf("  tile %d %d %d %d\n  balance %s\n",
		best.width, best.width, best.width, best.width, joinsp(best.lb))
}

func joinsp(v []string) string {
	out := ""
	for i, s := range v {
		if i > 0 {
			out += " "
		}
		out += s
	}
	return out
}
