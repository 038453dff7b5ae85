// Longest common subsequence of three DNA strings, with solution
// recovery (the traceback of Section VII-A): the kernel records every
// cell value it computes, and the table is walked from the goal to
// reconstruct an actual common subsequence, not just its length.
//
//	go run ./examples/lcs [-len 36] [-seed 11] [-nodes 2] [-threads 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"

	"dpgen"
)

func dna(n int, seed uint64) string {
	s := seed
	b := make([]byte, n)
	for i := range b {
		s = s*6364136223846793005 + 1442695040888963407
		b[i] = "ACGT"[(s>>33)%4]
	}
	return string(b)
}

func main() {
	var (
		length  = flag.Int("len", 36, "sequence length")
		seed    = flag.Uint64("seed", 11, "workload seed")
		nodes   = flag.Int("nodes", 2, "simulated MPI ranks")
		threads = flag.Int("threads", 4, "worker threads per node")
	)
	flag.Parse()

	a := dna(*length, *seed)
	b := dna(*length-2, *seed+1)
	c := dna(*length-4, *seed+2)

	sp, err := dpgen.NewSpec("lcs3", []string{"LA", "LB", "LC"}, []string{"i", "j", "k"})
	if err != nil {
		log.Fatal(err)
	}
	for _, cons := range []string{"0 <= i <= LA", "0 <= j <= LB", "0 <= k <= LC"} {
		if err := sp.Constrain(cons); err != nil {
			log.Fatal(err)
		}
	}
	sp.AddDep("di", 1, 0, 0)
	sp.AddDep("dj", 0, 1, 0)
	sp.AddDep("dk", 0, 0, 1)
	sp.AddDep("diag", 1, 1, 1)
	sp.TileWidths = []int64{8, 8, 8}
	sp.LBDims = []string{"i", "j"}

	// A per-cell body: it never sets cx.Done, so it runs at Done = 1.
	// It also records the full table for the traceback (Section VII-A
	// notes the generated programs discard interior values; a kernel
	// that writes its cells out is how this library keeps what a
	// traceback needs).
	var mu sync.Mutex
	table := map[[3]int64]float64{}
	kernel := func(cx *dpgen.Ctx) {
		i, j, k := cx.X[0], cx.X[1], cx.X[2]
		if cx.DepValid[3] && a[i] == b[j] && a[i] == c[k] {
			cx.V[cx.Loc] = 1 + cx.V[cx.DepLoc[3]]
		} else {
			var best float64
			for m := 0; m < 3; m++ {
				if cx.DepValid[m] && cx.V[cx.DepLoc[m]] > best {
					best = cx.V[cx.DepLoc[m]]
				}
			}
			cx.V[cx.Loc] = best
		}
		mu.Lock()
		table[[3]int64{i, j, k}] = cx.V[cx.Loc]
		mu.Unlock()
	}

	params := []int64{int64(len(a)), int64(len(b)), int64(len(c))}
	res, err := dpgen.Run(sp, kernel, params, dpgen.Config{Nodes: *nodes, Threads: *threads})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("A: %s\nB: %s\nC: %s\n", a, b, c)
	fmt.Printf("LCS length: %.0f\n", res.Value)

	// Traceback: greedily follow any move that preserves the value.
	var lcs []byte
	i, j, k := int64(0), int64(0), int64(0)
	LA, LB, LC := int64(len(a)), int64(len(b)), int64(len(c))
	for i < LA && j < LB && k < LC {
		cur := table[[3]int64{i, j, k}]
		if a[i] == b[j] && a[i] == c[k] && cur == 1+table[[3]int64{i + 1, j + 1, k + 1}] {
			lcs = append(lcs, a[i])
			i, j, k = i+1, j+1, k+1
			continue
		}
		switch cur {
		case table[[3]int64{i + 1, j, k}]:
			i++
		case table[[3]int64{i, j + 1, k}]:
			j++
		default:
			k++
		}
	}
	fmt.Printf("one LCS:    %s\n", lcs)
	if int64(len(lcs)) != int64(res.Value) {
		log.Fatalf("traceback recovered %d characters, value says %d", len(lcs), int64(res.Value))
	}

	// Verify the subsequence really occurs in all three strings.
	for name, s := range map[string]string{"A": a, "B": b, "C": c} {
		if !subseq(string(lcs), s) {
			log.Fatalf("recovered LCS is not a subsequence of %s", name)
		}
	}
	fmt.Println("verified: the recovered string is a common subsequence of A, B and C")
}

func subseq(needle, hay string) bool {
	i := 0
	for j := 0; j < len(hay) && i < len(needle); j++ {
		if hay[j] == needle[i] {
			i++
		}
	}
	return i == len(needle)
}
