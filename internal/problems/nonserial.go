package problems

import (
	"math"

	"dpgen/internal/engine"
	"dpgen/internal/spec"
)

// This file holds the built-in problems exercising the extended
// dependence templates: matrix-chain multiplication and optimal binary
// search trees (range templates — the classic nonserial polyadic DPs,
// where a cell depends on an interval of predecessors whose length
// varies along the wavefront) and bounded knapsack (a range template
// whose step distance is a run parameter).
//
// Matrix chain and optimal BST share one coordinate system: with
// matrices/keys indexed 0..N-1, the cell (m, i) stands for the interval
// [i, i+l] with l = N-1-m, so the origin (0, 0) is the full problem and
// the diagonal m = N-1 holds the length-zero base cases. Both
// subinterval families become two range templates:
//
//	left : base (1, 0), step (1, 0), count N-m-1
//	       footprint t covers the prefix interval [i, i+l-1-t]
//	right: base (1, 1), step (1, 1), count N-m-1
//	       footprint t covers the suffix interval [i+1+t, i+l]
//
// Every footprint cell stays inside the triangle, so the runtime's
// prefix clamp never fires; the count alone shapes the interval.

// mcmDim is the deterministic matrix-dimension workload: multiplying
// A_a (dim p_a x p_{a+1}) costs p_i*p_{k+1}*p_{j+1} scalar products.
func mcmDim(a int64) float64 { return float64((a*7)%19 + 1) }

// MCM is matrix-chain multiplication: the minimal scalar-multiplication
// count to parenthesize the product A_0 * ... * A_{N-1}. V(m, i) is the
// optimal cost of the chain A_i..A_{i+l}, l = N-1-m; the goal (0, 0)
// holds the full chain's cost.
func MCM() *Problem {
	sp := spec.MustNew("mcm", []string{"N"}, []string{"m", "i"})
	sp.MustConstrain("0 <= i")
	sp.MustConstrain("i <= m")
	sp.MustConstrain("m <= N - 1")
	sp.Bound("N", 1, 24)
	sp.MustAddDepSpec("left", "1, 0", "1, 0", "N - m - 1")
	sp.MustAddDepSpec("right", "1, 1", "1, 1", "N - m - 1")
	sp.TileWidths = []int64{8, 8}
	sp.LBDims = []string{"m"}

	kernel := func(c *engine.Ctx) {
		l := c.DepLen[0]
		if l == 0 {
			c.V[c.Loc] = 0 // single matrix
			return
		}
		i := c.X[1]
		s1, s2 := c.DepStride[0], c.DepStride[1]
		best := math.Inf(1)
		for k := int64(0); k < l; k++ {
			// Split after A_{i+k}: left interval has length k (footprint
			// step l-1-k), right starts at i+k+1 (footprint step k).
			v := c.V[c.DepLoc[0]+(l-1-k)*s1] + c.V[c.DepLoc[1]+k*s2] +
				mcmDim(i)*mcmDim(i+k+1)*mcmDim(i+l+1)
			if v < best {
				best = v
			}
		}
		c.V[c.Loc] = best
	}

	serial := func(params []int64) float64 {
		N := params[0]
		// cost[i][j]: optimal cost of A_i..A_j.
		cost := make([][]float64, N)
		for i := range cost {
			cost[i] = make([]float64, N)
		}
		for l := int64(1); l < N; l++ {
			for i := int64(0); i+l < N; i++ {
				j := i + l
				best := math.Inf(1)
				for k := i; k < j; k++ {
					v := cost[i][k] + cost[k+1][j] + mcmDim(i)*mcmDim(k+1)*mcmDim(j+1)
					if v < best {
						best = v
					}
				}
				cost[i][j] = best
			}
		}
		return cost[0][N-1]
	}

	sp.GlobalCode = `// Deterministic matrix dimensions, matching dpgen's built-in workload.
func dpDim(a int64) float64 { return float64((a*7)%19 + 1) }`
	sp.KernelCode = `l := len_left
if l == 0 {
	V[loc] = 0
} else {
	best := math.Inf(1)
	for k := int64(0); k < l; k++ {
		v := V[loc_left+(l-1-k)*stride_left] + V[loc_right+k*stride_right] +
			dpDim(i)*dpDim(i+k+1)*dpDim(i+l+1)
		if v < best {
			best = v
		}
	}
	V[loc] = best
}
_ = is_valid_left
_ = is_valid_right`

	return &Problem{Spec: sp, Kernel: kernel, Serial: serial, DefaultParams: []int64{20}}
}

// obstFreq is the deterministic key access-frequency workload.
func obstFreq(a int64) float64 { return float64((a*13)%7 + 1) }

// OBST is the optimal binary search tree: keys 0..N-1 with access
// weights obstFreq, minimizing the weighted path length
// sum_a freq(a) * depth(a) (root depth 1). V(m, i) is the optimal cost
// of the key interval [i, i+l], l = N-1-m; the goal (0, 0) holds the
// full tree's cost.
func OBST() *Problem {
	sp := spec.MustNew("obst", []string{"N"}, []string{"m", "i"})
	sp.MustConstrain("0 <= i")
	sp.MustConstrain("i <= m")
	sp.MustConstrain("m <= N - 1")
	sp.Bound("N", 1, 24)
	sp.MustAddDepSpec("left", "1, 0", "1, 0", "N - m - 1")
	sp.MustAddDepSpec("right", "1, 1", "1, 1", "N - m - 1")
	sp.TileWidths = []int64{8, 8}
	sp.LBDims = []string{"m"}

	kernel := func(c *engine.Ctx) {
		l := c.DepLen[0]
		i := c.X[1]
		if l == 0 {
			c.V[c.Loc] = obstFreq(i) // single key as root
			return
		}
		var w float64
		for a := i; a <= i+l; a++ {
			w += obstFreq(a)
		}
		s1, s2 := c.DepStride[0], c.DepStride[1]
		best := math.Inf(1)
		for k := int64(0); k <= l; k++ {
			// Root at key i+k: left subtree [i, i+k-1] (footprint step
			// l-k of "left"), right subtree [i+k+1, i+l] (footprint step
			// k of "right"); empty subtrees cost 0.
			var v float64
			if k > 0 {
				v += c.V[c.DepLoc[0]+(l-k)*s1]
			}
			if k < l {
				v += c.V[c.DepLoc[1]+k*s2]
			}
			if v < best {
				best = v
			}
		}
		c.V[c.Loc] = best + w
	}

	serial := func(params []int64) float64 {
		N := params[0]
		cost := make([][]float64, N)
		for i := range cost {
			cost[i] = make([]float64, N)
			cost[i][i] = obstFreq(int64(i))
		}
		for l := int64(1); l < N; l++ {
			for i := int64(0); i+l < N; i++ {
				j := i + l
				var w float64
				for a := i; a <= j; a++ {
					w += obstFreq(a)
				}
				best := math.Inf(1)
				for k := i; k <= j; k++ {
					var v float64
					if k > i {
						v += cost[i][k-1]
					}
					if k < j {
						v += cost[k+1][j]
					}
					if v < best {
						best = v
					}
				}
				cost[i][j] = best + w
			}
		}
		return cost[0][N-1]
	}

	sp.GlobalCode = `// Deterministic key access frequencies, matching dpgen's built-in workload.
func dpFreq(a int64) float64 { return float64((a*13)%7 + 1) }`
	sp.KernelCode = `l := len_left
if l == 0 {
	V[loc] = dpFreq(i)
} else {
	w := 0.0
	for a := i; a <= i+l; a++ {
		w += dpFreq(a)
	}
	best := math.Inf(1)
	for k := int64(0); k <= l; k++ {
		v := 0.0
		if k > 0 {
			v += V[loc_left+(l-k)*stride_left]
		}
		if k < l {
			v += V[loc_right+k*stride_right]
		}
		if v < best {
			best = v
		}
	}
	V[loc] = best + w
}
_ = is_valid_left
_ = is_valid_right`

	return &Problem{Spec: sp, Kernel: kernel, Serial: serial, DefaultParams: []int64{18}}
}

// knapMaxCopies is the per-item copy bound of the bounded knapsack
// builtin (the range template's count is knapMaxCopies+1 choices).
const knapMaxCopies = 3

// knapVal is the deterministic per-item value workload; every copy of
// item a weighs W (a run parameter) and is worth knapVal(a).
func knapVal(a int64) float64 { return float64((a*5)%11 + 1) }

// Knapsack is the bounded knapsack with uniform parametric weights:
// N item kinds, at most knapMaxCopies copies each, every copy weighing
// W, capacity C. V(a, u) is the best value attainable from item kinds
// a.. with u units of capacity already spent; the goal (0, 0) holds the
// full problem's optimum. The single dependence is a range template
// whose step distance in the capacity dimension is the parameter W —
// the variable-distance case — and whose usable length at (a, u) is cut
// down by the capacity constraint's prefix clamp to exactly the
// feasible copy counts.
func Knapsack() *Problem {
	sp := spec.MustNew("knap", []string{"N", "C", "W"}, []string{"a", "u"})
	sp.MustConstrain("0 <= a <= N - 1")
	sp.MustConstrain("0 <= u <= C")
	sp.Bound("W", 1, 4)
	sp.MustAddDepSpec("take", "1, 0", "0, W", "4")
	sp.TileWidths = []int64{8, 8}
	sp.LBDims = []string{"a"}

	// The body in run form: one call sweeps the N cells of a row run,
	// along which a — hence knapVal(a) — and the usable length are
	// constant and u and the buffer locations advance. Under a loop
	// order that puts a innermost it takes one cell per call.
	kernel := func(c *engine.Ctx) {
		cnt := takeRun(c, 1)
		V, loc, step := c.V, c.Loc, c.Step
		val := knapVal(c.X[0])
		n := c.DepLen[0]
		if n == 0 {
			// Last item kind (the footprint row a+1 is out of space):
			// greedily count the feasible copies of item a.
			C, W := c.P[1], c.P[2]
			for u := c.X[1]; cnt > 0; cnt-- {
				best := 0.0
				for k := int64(1); k <= knapMaxCopies && u+k*W <= C; k++ {
					if v := float64(k) * val; v > best {
						best = v
					}
				}
				V[loc] = best
				loc += step
				u += c.Dir
			}
			return
		}
		s := c.DepStride[0]
		if n == knapMaxCopies+1 {
			// The full footprint (every copy count feasible): the
			// general loop's four terms unrolled, in its order. Its
			// k = 0 term 0*val + V[take] differs from V[take] only in
			// the sign of a zero, which never passes v > best.
			val2, val3 := 2*val, 3*val
			for take := c.DepLoc[0]; cnt > 0; cnt-- {
				var best float64
				if v := V[take]; v > best {
					best = v
				}
				if v := val + V[take+s]; v > best {
					best = v
				}
				if v := val2 + V[take+2*s]; v > best {
					best = v
				}
				if v := val3 + V[take+3*s]; v > best {
					best = v
				}
				V[loc] = best
				loc += step
				take += step
			}
			return
		}
		for take := c.DepLoc[0]; cnt > 0; cnt-- {
			var best float64
			for k := int64(0); k < n; k++ {
				if v := float64(k)*val + V[take+k*s]; v > best {
					best = v
				}
			}
			V[loc] = best
			loc += step
			take += step
		}
	}

	serial := func(params []int64) float64 {
		N, C, W := params[0], params[1], params[2]
		cur := make([]float64, C+1)
		next := make([]float64, C+1)
		for a := N - 1; a >= 0; a-- {
			for u := int64(0); u <= C; u++ {
				var best float64
				for k := int64(0); k <= knapMaxCopies && u+k*W <= C; k++ {
					v := float64(k) * knapVal(a)
					if a < N-1 {
						v += next[u+k*W]
					}
					if v > best {
						best = v
					}
				}
				cur[u] = best
			}
			cur, next = next, cur
		}
		return next[0]
	}

	sp.GlobalCode = `// Deterministic item values, matching dpgen's built-in workload.
func dpVal(a int64) float64 { return float64((a*5)%11 + 1) }`
	sp.KernelCode = `n := len_take
if n == 0 {
	best := 0.0
	for k := int64(1); k <= 3 && u+k*W <= C; k++ {
		if v := float64(k) * dpVal(a); v > best {
			best = v
		}
	}
	V[loc] = best
} else {
	best := 0.0
	for k := int64(0); k < n; k++ {
		if v := float64(k)*dpVal(a) + V[loc_take+k*stride_take]; v > best {
			best = v
		}
	}
	V[loc] = best
}
_ = is_valid_take`

	return &Problem{Spec: sp, Kernel: kernel, Serial: serial, DefaultParams: []int64{10, 30, 3}}
}
