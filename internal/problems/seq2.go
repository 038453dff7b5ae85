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
