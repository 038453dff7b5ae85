package problems

import (
	"fmt"
	"math"

	"dpgen/internal/engine"
	"dpgen/internal/spec"
	"dpgen/internal/workload"
)

// SmithWaterman is local pairwise alignment in suffix form: H(i,j) is
// the best score of a local alignment *starting* at (i,j), clamped at
// zero; the problem's answer is the maximum over all locations (the
// engine reports it in Result.Max). score gives the (positive-for-match)
// substitution score and gap the (positive) gap penalty.
func SmithWaterman(a, b string, score func(x, y byte) float64, gap float64) *Problem {
	sp := spec.MustNew("smithwaterman", []string{"L1", "L2"}, []string{"i", "j"})
	sp.MustConstrain("0 <= i <= L1")
	sp.MustConstrain("0 <= j <= L2")
	sp.AddDep("sub", 1, 1)
	sp.AddDep("del", 1, 0)
	sp.AddDep("ins", 0, 1)
	sp.TileWidths = []int64{32, 32}
	sp.LBDims = []string{"i"}

	kernel := func(c *engine.Ctx) {
		i, j := c.X[0], c.X[1]
		best := 0.0 // a local alignment may start (end) anywhere
		if c.DepValid[0] {
			if v := c.V[c.DepLoc[0]] + score(a[i], b[j]); v > best {
				best = v
			}
		}
		if c.DepValid[1] {
			if v := c.V[c.DepLoc[1]] - gap; v > best {
				best = v
			}
		}
		if c.DepValid[2] {
			if v := c.V[c.DepLoc[2]] - gap; v > best {
				best = v
			}
		}
		c.V[c.Loc] = best
	}

	serial := func(params []int64) float64 {
		L1, L2 := params[0], params[1]
		tab := make([][]float64, L1+1)
		for i := range tab {
			tab[i] = make([]float64, L2+1)
		}
		max := math.Inf(-1)
		for i := L1; i >= 0; i-- {
			for j := L2; j >= 0; j-- {
				best := 0.0
				if i < L1 && j < L2 {
					if v := tab[i+1][j+1] + score(a[i], b[j]); v > best {
						best = v
					}
				}
				if i < L1 {
					if v := tab[i+1][j] - gap; v > best {
						best = v
					}
				}
				if j < L2 {
					if v := tab[i][j+1] - gap; v > best {
						best = v
					}
				}
				tab[i][j] = best
				if best > max {
					max = best
				}
			}
		}
		return max
	}

	return &Problem{
		Spec: sp, Kernel: kernel, Serial: serial, UseMax: true, FixedParams: true,
		DefaultParams: []int64{int64(len(a)), int64(len(b))},
	}
}

// ScoreMatch21 is the classic +2 match / -1 mismatch local alignment
// scoring.
func ScoreMatch21(x, y byte) float64 {
	if x == y {
		return 2
	}
	return -1
}

// SmithWatermanSeeded builds SmithWaterman on deterministic DNA with a
// shared planted motif so the local alignment has something to find;
// generator source is attached (the generated program's answer is its
// printed "max").
func SmithWatermanSeeded(seed uint64) *Problem {
	motif := workload.DNA(25, seed+100)
	a := workload.DNA(80, seed) + motif + workload.DNA(75, seed+1)
	b := workload.DNA(50, seed+2) + motif + workload.DNA(90, seed+3)
	p := SmithWaterman(a, b, ScoreMatch21, 2)
	p.Spec.GlobalCode = dnaGlobals(
		fmt.Sprintf("var dpMotif = dpDNA(25, %d)", seed+100),
		fmt.Sprintf("var seqA = dpDNA(80, %d) + dpMotif + dpDNA(75, %d)", seed, seed+1),
		fmt.Sprintf("var seqB = dpDNA(50, %d) + dpMotif + dpDNA(90, %d)", seed+2, seed+3))
	p.Spec.KernelCode = swKernelText
	return p
}

// LCS2 is the longest common subsequence of two strings — the pairwise
// DNA matching problem of the paper's introduction.
func LCS2(a, b string) *Problem {
	sp := spec.MustNew("lcs2", []string{"L1", "L2"}, []string{"i", "j"})
	sp.MustConstrain("0 <= i <= L1")
	sp.MustConstrain("0 <= j <= L2")
	sp.AddDep("di", 1, 0)
	sp.AddDep("dj", 0, 1)
	sp.AddDep("diag", 1, 1)
	sp.TileWidths = []int64{32, 32}
	sp.LBDims = []string{"i"}

	// The body in run form: one call sweeps the N cells of a row run,
	// along which i, a[i] and the three validity flags are constant and
	// j and the buffer locations advance. Under a loop order that puts i
	// innermost it takes the run one cell at a time. A run with every
	// dependence valid (an interior tile's) takes a loop that tests no
	// flag; boundary runs take the general one.
	kernel := func(c *engine.Ctx) {
		n := takeRun(c, 1)
		V, loc, step := c.V, c.Loc, c.Step
		di, dj, diag := c.DepLoc[0]-loc, c.DepLoc[1]-loc, c.DepLoc[2]-loc
		vi, vj, vdiag := c.DepValid[0], c.DepValid[1], c.DepValid[2]
		j, dir := c.X[1], c.Dir
		if vi && vj && vdiag {
			ai := a[c.X[0]]
			for ; n > 0; n-- {
				if ai == b[j] {
					V[loc] = 1 + V[loc+diag]
				} else {
					var best float64
					if V[loc+di] > best {
						best = V[loc+di]
					}
					if V[loc+dj] > best {
						best = V[loc+dj]
					}
					V[loc] = best
				}
				loc += step
				j += dir
			}
			return
		}
		var ai byte
		if vdiag { // i < L1 and every j of the run < L2
			ai = a[c.X[0]]
		}
		for ; n > 0; n-- {
			if vdiag && ai == b[j] {
				V[loc] = 1 + V[loc+diag]
			} else {
				var best float64
				if vi && V[loc+di] > best {
					best = V[loc+di]
				}
				if vj && V[loc+dj] > best {
					best = V[loc+dj]
				}
				V[loc] = best
			}
			loc += step
			j += dir
		}
	}

	serial := func(params []int64) float64 {
		L1, L2 := params[0], params[1]
		tab := make([][]float64, L1+1)
		for i := range tab {
			tab[i] = make([]float64, L2+1)
		}
		for i := L1 - 1; i >= 0; i-- {
			for j := L2 - 1; j >= 0; j-- {
				if a[i] == b[j] {
					tab[i][j] = 1 + tab[i+1][j+1]
					continue
				}
				tab[i][j] = tab[i+1][j]
				if tab[i][j+1] > tab[i][j] {
					tab[i][j] = tab[i][j+1]
				}
			}
		}
		return tab[0][0]
	}

	return &Problem{
		Spec: sp, Kernel: kernel, Serial: serial, FixedParams: true,
		DefaultParams: []int64{int64(len(a)), int64(len(b))},
	}
}

// LCS2Seeded builds LCS2 on deterministic DNA inputs, with generator
// source attached.
func LCS2Seeded(seed uint64) *Problem {
	p := LCS2(workload.DNA(300, seed), workload.DNA(280, seed+1))
	p.Spec.GlobalCode = dnaGlobals(
		fmt.Sprintf("var seqA = dpDNA(300, %d)", seed),
		fmt.Sprintf("var seqB = dpDNA(280, %d)", seed+1))
	p.Spec.KernelCode = lcs2KernelText
	return p
}

// msa4Moves are the fifteen alignment moves of 4-sequence MSA.
var msa4Moves = func() [][4]int64 {
	var out [][4]int64
	for m := 1; m < 16; m++ {
		out = append(out, [4]int64{int64(m >> 3 & 1), int64(m >> 2 & 1), int64(m >> 1 & 1), int64(m & 1)})
	}
	return out
}()

// MSA4 is exact 4-sequence multiple alignment with sum-of-pairs scoring
// — the 4-sequence problem the paper cites FPGA work for (reference
// [5]); here it is an ordinary 4-dimensional spec.
func MSA4(a, b, c, d string, sub func(x, y byte) float64, gap float64) *Problem {
	sp := spec.MustNew("msa4", []string{"L1", "L2", "L3", "L4"}, []string{"i", "j", "k", "l"})
	sp.MustConstrain("0 <= i <= L1")
	sp.MustConstrain("0 <= j <= L2")
	sp.MustConstrain("0 <= k <= L3")
	sp.MustConstrain("0 <= l <= L4")
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "m", "n", "o", "p", "q", "r", "s"}
	for m, mv := range msa4Moves {
		sp.AddDep("mv"+names[m], mv[0], mv[1], mv[2], mv[3])
	}
	sp.TileWidths = []int64{6, 6, 6, 6}
	sp.LBDims = []string{"i", "j"}

	seqs := [4]string{a, b, c, d}
	colCost := func(x [4]int64, mv [4]int64) float64 {
		var cost float64
		for p := 0; p < 4; p++ {
			for q := p + 1; q < 4; q++ {
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
		x := [4]int64{cx.X[0], cx.X[1], cx.X[2], cx.X[3]}
		best := math.Inf(1)
		for m := range msa4Moves {
			if !cx.DepValid[m] {
				continue
			}
			if v := cx.V[cx.DepLoc[m]] + colCost(x, msa4Moves[m]); v < best {
				best = v
			}
		}
		if math.IsInf(best, 1) {
			best = 0
		}
		cx.V[cx.Loc] = best
	}

	serial := func(params []int64) float64 {
		L := [4]int64{params[0], params[1], params[2], params[3]}
		stride := [4]int64{}
		size := int64(1)
		for p := 3; p >= 0; p-- {
			stride[p] = size
			size *= L[p] + 1
		}
		tab := make([]float64, size)
		idx := func(x [4]int64) int64 {
			return x[0]*stride[0] + x[1]*stride[1] + x[2]*stride[2] + x[3]*stride[3]
		}
		var x [4]int64
		for x[0] = L[0]; x[0] >= 0; x[0]-- {
			for x[1] = L[1]; x[1] >= 0; x[1]-- {
				for x[2] = L[2]; x[2] >= 0; x[2]-- {
					for x[3] = L[3]; x[3] >= 0; x[3]-- {
						best := math.Inf(1)
						for m := range msa4Moves {
							mv := msa4Moves[m]
							nx := [4]int64{x[0] + mv[0], x[1] + mv[1], x[2] + mv[2], x[3] + mv[3]}
							if nx[0] > L[0] || nx[1] > L[1] || nx[2] > L[2] || nx[3] > L[3] {
								continue
							}
							if v := tab[idx(nx)] + colCost(x, mv); v < best {
								best = v
							}
						}
						if math.IsInf(best, 1) {
							best = 0
						}
						tab[idx(x)] = best
					}
				}
			}
		}
		return tab[0]
	}

	return &Problem{
		Spec: sp, Kernel: kernel, Serial: serial, FixedParams: true,
		DefaultParams: []int64{int64(len(a)), int64(len(b)), int64(len(c)), int64(len(d))},
	}
}

// MSA4Seeded builds MSA4 on deterministic DNA inputs, with generator
// source attached.
func MSA4Seeded(seed uint64) *Problem {
	p := MSA4(workload.DNA(14, seed), workload.DNA(13, seed+1),
		workload.DNA(12, seed+2), workload.DNA(11, seed+3),
		workload.SubUnit, 1)
	p.Spec.GlobalCode = dnaGlobals(
		fmt.Sprintf("var seqA = dpDNA(14, %d)", seed),
		fmt.Sprintf("var seqB = dpDNA(13, %d)", seed+1),
		fmt.Sprintf("var seqC = dpDNA(12, %d)", seed+2),
		fmt.Sprintf("var seqD = dpDNA(11, %d)", seed+3))
	names4 := []string{"a", "b", "c", "d", "e", "f", "g", "h", "m", "n", "o", "p", "q", "r", "s"}
	moves := make([][]int64, len(msa4Moves))
	depNames := make([]string, len(msa4Moves))
	for m := range msa4Moves {
		moves[m] = []int64{msa4Moves[m][0], msa4Moves[m][1], msa4Moves[m][2], msa4Moves[m][3]}
		depNames[m] = "mv" + names4[m]
	}
	p.Spec.KernelCode = msaKernelText(moves, depNames,
		[]string{"seqA", "seqB", "seqC", "seqD"}, []string{"i", "j", "k", "l"})
	return p
}
