package problems

import (
	"fmt"
	"math"

	"dpgen/internal/engine"
	"dpgen/internal/spec"
	"dpgen/internal/workload"
)

// EditDistance is pairwise sequence alignment in suffix form:
// D(i,j) is the minimal cost of aligning a[i:] with b[j:], with
// D(len(a), len(b)) = 0 and the usual delete/insert/substitute moves.
// The goal location (0,0) holds the full edit distance.
func EditDistance(a, b string, sub func(x, y byte) float64, gap float64) *Problem {
	sp := spec.MustNew("editdist", []string{"L1", "L2"}, []string{"i", "j"})
	sp.MustConstrain("0 <= i <= L1")
	sp.MustConstrain("0 <= j <= L2")
	sp.AddDep("del", 1, 0)
	sp.AddDep("ins", 0, 1)
	sp.AddDep("sub", 1, 1)
	sp.TileWidths = []int64{32, 32}
	sp.LBDims = []string{"i"}

	kernel := func(c *engine.Ctx) {
		i, j := c.X[0], c.X[1]
		best := math.Inf(1)
		if c.DepValid[0] {
			if v := c.V[c.DepLoc[0]] + gap; v < best {
				best = v
			}
		}
		if c.DepValid[1] {
			if v := c.V[c.DepLoc[1]] + gap; v < best {
				best = v
			}
		}
		if c.DepValid[2] {
			if v := c.V[c.DepLoc[2]] + sub(a[i], b[j]); v < best {
				best = v
			}
		}
		if math.IsInf(best, 1) {
			best = 0 // terminal corner (L1, L2)
		}
		c.V[c.Loc] = best
	}

	serial := func(params []int64) float64 {
		L1, L2 := params[0], params[1]
		tab := make([][]float64, L1+1)
		for i := range tab {
			tab[i] = make([]float64, L2+1)
		}
		for i := L1; i >= 0; i-- {
			for j := L2; j >= 0; j-- {
				best := math.Inf(1)
				if i < L1 {
					if v := tab[i+1][j] + gap; v < best {
						best = v
					}
				}
				if j < L2 {
					if v := tab[i][j+1] + gap; v < best {
						best = v
					}
				}
				if i < L1 && j < L2 {
					if v := tab[i+1][j+1] + sub(a[i], b[j]); v < best {
						best = v
					}
				}
				if math.IsInf(best, 1) {
					best = 0
				}
				tab[i][j] = best
			}
		}
		return tab[0][0]
	}

	return &Problem{
		Spec: sp, Kernel: kernel, Serial: serial, FixedParams: true,
		DefaultParams: []int64{int64(len(a)), int64(len(b))},
	}
}

// EditDistanceSeeded builds EditDistance on deterministic DNA inputs.
// The spec carries global and kernel code so the problem can also be fed
// to the code generator; the embedded LCG reproduces workload.DNA
// byte-for-byte, so generated programs compute on identical inputs.
func EditDistanceSeeded(seedA, seedB uint64) *Problem {
	a := workload.DNA(200, seedA)
	b := workload.DNA(180, seedB)
	p := EditDistance(a, b, workload.SubUnit, 1)
	p.Spec.GlobalCode = fmt.Sprintf(`// Deterministic inputs: the same LCG as dpgen's workload package.
func dpDNA(n int, seed uint64) string {
	s := seed
	b := make([]byte, n)
	for i := range b {
		s = s*6364136223846793005 + 1442695040888963407
		b[i] = "ACGT"[(s>>33)%%4]
	}
	return string(b)
}

var seqA = dpDNA(200, %d)
var seqB = dpDNA(180, %d)`, seedA, seedB)
	p.Spec.KernelCode = `best := math.Inf(1)
if is_valid_del {
	if v := V[loc_del] + 1; v < best {
		best = v
	}
}
if is_valid_ins {
	if v := V[loc_ins] + 1; v < best {
		best = v
	}
}
if is_valid_sub {
	c := 1.0
	if seqA[i] == seqB[j] {
		c = 0
	}
	if v := V[loc_sub] + c; v < best {
		best = v
	}
}
if math.IsInf(best, 1) {
	best = 0
}
V[loc] = best`
	return p
}

// LCS3 is the longest common subsequence of three strings in suffix
// form: L(i,j,k) is the LCS length of a[i:], b[j:], c[k:]; the goal
// (0,0,0) holds the full LCS length.
func LCS3(a, b, c string) *Problem {
	sp := spec.MustNew("lcs3", []string{"L1", "L2", "L3"}, []string{"i", "j", "k"})
	sp.MustConstrain("0 <= i <= L1")
	sp.MustConstrain("0 <= j <= L2")
	sp.MustConstrain("0 <= k <= L3")
	sp.AddDep("di", 1, 0, 0)
	sp.AddDep("dj", 0, 1, 0)
	sp.AddDep("dk", 0, 0, 1)
	sp.AddDep("diag", 1, 1, 1)
	sp.TileWidths = []int64{8, 8, 8}
	sp.LBDims = []string{"i", "j"}

	kernel := func(cx *engine.Ctx) {
		i, j, k := cx.X[0], cx.X[1], cx.X[2]
		if cx.DepValid[3] && a[i] == b[j] && a[i] == c[k] {
			cx.V[cx.Loc] = 1 + cx.V[cx.DepLoc[3]]
			return
		}
		var best float64
		if cx.DepValid[0] && cx.V[cx.DepLoc[0]] > best {
			best = cx.V[cx.DepLoc[0]]
		}
		if cx.DepValid[1] && cx.V[cx.DepLoc[1]] > best {
			best = cx.V[cx.DepLoc[1]]
		}
		if cx.DepValid[2] && cx.V[cx.DepLoc[2]] > best {
			best = cx.V[cx.DepLoc[2]]
		}
		cx.V[cx.Loc] = best
	}

	serial := func(params []int64) float64 {
		L1, L2, L3 := params[0], params[1], params[2]
		tab := make([]float64, (L1+1)*(L2+1)*(L3+1))
		idx := func(i, j, k int64) int64 { return (i*(L2+1)+j)*(L3+1) + k }
		for i := L1; i >= 0; i-- {
			for j := L2; j >= 0; j-- {
				for k := L3; k >= 0; k-- {
					if i < L1 && j < L2 && k < L3 && a[i] == b[j] && a[i] == c[k] {
						tab[idx(i, j, k)] = 1 + tab[idx(i+1, j+1, k+1)]
						continue
					}
					var best float64
					if i < L1 && tab[idx(i+1, j, k)] > best {
						best = tab[idx(i+1, j, k)]
					}
					if j < L2 && tab[idx(i, j+1, k)] > best {
						best = tab[idx(i, j+1, k)]
					}
					if k < L3 && tab[idx(i, j, k+1)] > best {
						best = tab[idx(i, j, k+1)]
					}
					tab[idx(i, j, k)] = best
				}
			}
		}
		return tab[0]
	}

	return &Problem{
		Spec: sp, Kernel: kernel, Serial: serial, FixedParams: true,
		DefaultParams: []int64{int64(len(a)), int64(len(b)), int64(len(c))},
	}
}

// LCS3Seeded builds LCS3 on deterministic DNA inputs, with generator
// source attached so the problem can be emitted as a standalone program.
func LCS3Seeded(seed uint64) *Problem {
	p := LCS3(workload.DNA(40, seed), workload.DNA(36, seed+1), workload.DNA(32, seed+2))
	p.Spec.GlobalCode = dnaGlobals(
		fmt.Sprintf("var seqA = dpDNA(40, %d)", seed),
		fmt.Sprintf("var seqB = dpDNA(36, %d)", seed+1),
		fmt.Sprintf("var seqC = dpDNA(32, %d)", seed+2))
	p.Spec.KernelCode = lcs3KernelText
	return p
}

// MSA is exact multiple alignment of k = len(seqs) sequences with
// sum-of-pairs scoring in suffix form: D(x) is the minimal cost of
// aligning the suffixes seqs[p][x[p]:], built from the 2^k-1 column
// moves; a column pays sub(x,y) for each pair of consumed characters and
// gap for each consumed/gap pair. Move m (1 <= m < 2^k) advances
// dimension p when bit k-1-p of m is set, and its dependence is named d
// plus those k bits (d001 ... d111 for three sequences). The space is
// over the first k of i, j, k, l (so 2 <= k <= 4) with parameters
// L1..Lk, balanced over i and j, in tiles of width in every dimension.
func MSA(seqs []string, sub func(x, y byte) float64, gap float64, width int64) *Problem {
	k := len(seqs)
	vars := []string{"i", "j", "k", "l"}[:k]
	params := make([]string, k)
	for p := range params {
		params[p] = fmt.Sprintf("L%d", p+1)
	}
	sp := spec.MustNew(fmt.Sprintf("msa%d", k), params, vars)
	for p, v := range vars {
		sp.MustConstrain(fmt.Sprintf("0 <= %s <= %s", v, params[p]))
	}
	moves := make([][]int64, 1<<k-1)
	for m := range moves {
		mv := make([]int64, k)
		for p := range mv {
			mv[p] = int64((m + 1) >> (k - 1 - p) & 1)
		}
		moves[m] = mv
		sp.AddDep(fmt.Sprintf("d%0*b", k, m+1), mv...)
	}
	sp.TileWidths = make([]int64, k)
	for p := range sp.TileWidths {
		sp.TileWidths[p] = width
	}
	sp.LBDims = []string{"i", "j"}

	// colCost sums the column's pairs in the order (0,1), (0,2) ...
	// (k-2,k-1); the order of the float sum is part of every value.
	colCost := func(x, mv []int64) float64 {
		var cost float64
		for p := 0; p < k; p++ {
			for q := p + 1; q < k; q++ {
				switch {
				case mv[p] == 1 && mv[q] == 1:
					cost += sub(seqs[p][x[p]], seqs[q][x[q]])
				case mv[p]+mv[q] == 1:
					cost += gap
				}
			}
		}
		return cost
	}

	kernel := func(cx *engine.Ctx) {
		best := math.Inf(1)
		for m, mv := range moves {
			if !cx.DepValid[m] {
				continue
			}
			if v := cx.V[cx.DepLoc[m]] + colCost(cx.X, mv); v < best {
				best = v
			}
		}
		if math.IsInf(best, 1) {
			best = 0 // terminal corner
		}
		cx.V[cx.Loc] = best
	}

	// serial fills a row-major k-dimensional table from the far corner
	// back to the origin: every move leads to a larger index.
	serial := func(L []int64) float64 {
		stride := make([]int64, k)
		size := int64(1)
		for p := k - 1; p >= 0; p-- {
			stride[p] = size
			size *= L[p] + 1
		}
		tab := make([]float64, size)
		x := make([]int64, k)
		for at := size - 1; at >= 0; at-- {
			for p := range x {
				x[p] = at / stride[p] % (L[p] + 1)
			}
			best := math.Inf(1)
		moves:
			for _, mv := range moves {
				next := at
				for p, d := range mv {
					if x[p]+d > L[p] {
						continue moves
					}
					next += d * stride[p]
				}
				if v := tab[next] + colCost(x, mv); v < best {
					best = v
				}
			}
			if math.IsInf(best, 1) {
				best = 0
			}
			tab[at] = best
		}
		return tab[0]
	}

	lens := make([]int64, k)
	for p, s := range seqs {
		lens[p] = int64(len(s))
	}
	return &Problem{Spec: sp, Kernel: kernel, Serial: serial, FixedParams: true, DefaultParams: lens}
}

// MSASeeded builds MSA on deterministic DNA inputs of the given lengths
// (sequence p from seed+p) with unit substitution costs and gap penalty
// 1, with generator source attached.
func MSASeeded(seed uint64, width int64, lens ...int) *Problem {
	seqs := make([]string, len(lens))
	decls := make([]string, len(lens))
	for p, n := range lens {
		seqs[p] = workload.DNA(n, seed+uint64(p))
		decls[p] = fmt.Sprintf("var seq%c = dpDNA(%d, %d)", 'A'+p, n, seed+uint64(p))
	}
	p := MSA(seqs, workload.SubUnit, 1, width)
	p.Spec.GlobalCode = dnaGlobals(decls...)
	p.Spec.KernelCode = msaKernelText(p.Spec)
	return p
}
