package problems

import (
	"math"

	"dpgen/internal/engine"
)

// This file holds the built-in problems exercising the extended
// dependence templates: matrix-chain multiplication and optimal binary
// search trees (range templates — the classic nonserial polyadic DPs,
// where a cell depends on an interval of predecessors whose length
// varies along the wavefront) and bounded knapsack (a range template
// whose step distance is a run parameter). Their specs are
// specs/mcm.dps, specs/obst.dps and specs/knap.dps; this file holds what
// those cannot: the run-time kernels, the serial references and the
// workloads (mcmDim, obstFreq, knapVal) that the files' global code
// repeats as dpDim, dpFreq and dpVal.
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

	return &Problem{Spec: specFile("mcm.dps"), Kernel: kernel, Serial: serial, DefaultParams: []int64{20}}
}

// obstFreq is the deterministic key access-frequency workload.
func obstFreq(a int64) float64 { return float64((a*13)%7 + 1) }

// OBST is the optimal binary search tree: keys 0..N-1 with access
// weights obstFreq, minimizing the weighted path length
// sum_a freq(a) * depth(a) (root depth 1). V(m, i) is the optimal cost
// of the key interval [i, i+l], l = N-1-m; the goal (0, 0) holds the
// full tree's cost.
func OBST() *Problem {
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

	return &Problem{Spec: specFile("obst.dps"), Kernel: kernel, Serial: serial, DefaultParams: []int64{18}}
}

// knapMaxCopies is the per-item copy bound of the bounded knapsack
// builtin (specs/knap.dps's range template counts knapMaxCopies+1
// choices).
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

	return &Problem{Spec: specFile("knap.dps"), Kernel: kernel, Serial: serial, DefaultParams: []int64{10, 30, 3}}
}
