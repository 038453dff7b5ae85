// Package dpfuzz is the generative correctness harness of the
// generator: a seeded random source of valid-by-construction DP specs
// plus a layered oracle stack that checks every stage of the pipeline
// against brute force (see docs/TESTING.md).
//
// The layers, from the bottom of the pipeline up:
//
//  1. FM-synthesized loop bounds (dpgen/internal/fm + loopgen) against
//     direct lattice enumeration of the constraint system;
//  2. Ehrhart point counts (dpgen/internal/ehrhart) against exhaustive
//     counting on small instances;
//  3. the tiling analysis's pack/unpack index sets and validity
//     functions (dpgen/internal/tiling) against the dependence
//     definition itself;
//  4. end-to-end engine results: an independent serial solver vs. the
//     threaded runtime vs. fast path on/off vs. a two-rank TCP
//     transport run, all required bit-identical.
//
// Three consumers drive it: TestRandomSpecs (a fixed seed sweep run on
// every `go test`), the native fuzz targets FuzzSpec/FuzzFM/
// FuzzEhrhart, and the cmd/dpfuzz soak CLI which minimizes failures
// and prints them as reproducible Go literals.
package dpfuzz

import (
	"fmt"
	"math/rand"

	"dpgen/internal/balance"
	"dpgen/internal/engine"
	"dpgen/internal/fm"
	"dpgen/internal/ints"
	"dpgen/internal/loopgen"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// Instance is one generated test case: a valid spec, the parameter
// value the engine layers run at, and the runtime configuration knobs
// the differential layer varies. Everything is a deterministic
// function of Seed.
type Instance struct {
	Seed uint64
	Spec *spec.Spec
	// N is the value of the first parameter "N" used by the engine
	// and pack/unpack layers; the counting layers sweep smaller values.
	N int64
	// D is the value of the second, bounded parameter "D" that the
	// variable-distance and range template classes thread through their
	// offset/step/count forms; zero when the spec has no such parameter.
	D int64

	// Randomized runtime knobs for the differential layer.
	Nodes    int
	Threads  int
	SendBufs int
	RecvBufs int
	Priority engine.Priority
	Balance  balance.Method

	// Lazily built pipeline artifacts, shared across the oracle layers
	// (each instance is exercised by a single goroutine).
	nest    *loopgen.Nest
	nestErr error
	tl      *tiling.Tiling
	tlErr   error
}

// iterNest lazily synthesizes the iteration-space loop nest via
// Fourier–Motzkin elimination, exactly as the generator does.
func (in *Instance) iterNest() (*loopgen.Nest, error) {
	if in.nest == nil && in.nestErr == nil {
		in.nest, in.nestErr = loopgen.Build(in.Spec.System(), in.Spec.Order(), fm.Options{Prune: fm.PruneSimplex})
	}
	return in.nest, in.nestErr
}

// tiling lazily runs the full generation-time analysis.
func (in *Instance) tiling() (*tiling.Tiling, error) {
	if in.tl == nil && in.tlErr == nil {
		in.tl, in.tlErr = tiling.New(in.Spec)
	}
	return in.tl, in.tlErr
}

// countNest returns the nest the Ehrhart layer interpolates over N:
// the iteration nest itself for single-parameter specs, or a rebuilt
// single-parameter nest when the spec's extra template parameters
// (which Ehrhart interpolation cannot handle) never appear in a
// constraint — true for every generated extended-class spec, whose
// bounded parameter only occurs inside dependence templates. ok is
// false when the reduction does not apply and the layer must skip.
func (in *Instance) countNest() (nest *loopgen.Nest, ok bool, err error) {
	sp := in.Spec
	if len(sp.Params) == 1 {
		nest, err = in.iterNest()
		return nest, true, err
	}
	for _, q := range sp.Constraints {
		for _, p := range sp.Params[1:] {
			if q.Coeff(p) != 0 {
				return nil, false, nil
			}
		}
	}
	red := spec.MustNew(sp.Name, sp.Params[:1], append([]string(nil), sp.Vars...))
	for _, q := range sp.Constraints {
		if cerr := red.Constrain(q.String()); cerr != nil {
			return nil, false, nil
		}
	}
	red.LoopOrder = append([]string(nil), sp.LoopOrder...)
	nest, err = loopgen.Build(red.System(), red.Order(), fm.Options{Prune: fm.PruneSimplex})
	return nest, true, err
}

// maxTestN returns the largest parameter value any oracle layer will
// evaluate this instance at.
func (in *Instance) maxTestN() int64 {
	if in.N > countMaxN {
		return in.N
	}
	return countMaxN
}

// pvals returns the full parameter vector for running the instance at
// the given N: just {N} for single-parameter specs, {N, D} when the
// spec declares the bounded template parameter.
func (in *Instance) pvals(N int64) []int64 {
	if len(in.Spec.Params) > 1 {
		return []int64{N, in.D}
	}
	return []int64{N}
}

// countMaxN is the largest parameter value the counting layers
// (loop-bound and Ehrhart oracles) enumerate exhaustively.
const countMaxN = 5

// engineBaseN is the smallest engine-layer parameter value per
// dimension count, chosen so the brute-force serial reference stays
// around a few thousand cells while still spanning several tiles.
var engineBaseN = map[int]int64{1: 24, 2: 11, 3: 7, 4: 5}

// Class selects which dependence-template class Generate draws:
// constant vectors (the paper's form), variable-distance offsets
// (parameter-affine components over a bounded parameter), or range
// templates (a cell depends on an interval of predecessors, the
// nonserial polyadic case; some steps and counts also involve the
// bounded parameter).
type Class int

const (
	// ClassAny lets the seed choose the class.
	ClassAny Class = iota - 1
	// ClassConst generates constant template vectors only.
	ClassConst
	// ClassVarDist generates point templates with parameter-affine
	// (variable-distance) offset components.
	ClassVarDist
	// ClassRange generates range templates, mixed with point templates.
	ClassRange
)

// String names the class as accepted by ParseClass.
func (c Class) String() string {
	switch c {
	case ClassConst:
		return "const"
	case ClassVarDist:
		return "vardist"
	case ClassRange:
		return "range"
	}
	return "any"
}

// ParseClass maps a command-line name to a Class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "any":
		return ClassAny, nil
	case "const":
		return ClassConst, nil
	case "vardist":
		return ClassVarDist, nil
	case "range":
		return ClassRange, nil
	}
	return ClassAny, fmt.Errorf("dpfuzz: unknown template class %q (want const, vardist, range, or any)", s)
}

// Generate derives a valid-by-construction instance from seed: random
// dimension 1–4, a random template class, a bounded parametric box
// plus up to two random extra half-spaces, random
// single-direction-per-dimension templates, a random loop order, tile
// widths, load-balancing dimensions, and random runtime knobs. The
// returned spec always passes spec.Validate, keeps the origin goal
// inside the iteration space at every parameter value the oracles
// test, and admits at least one initial tile (the template sign
// discipline makes the tile graph acyclic).
func Generate(seed uint64) *Instance { return GenerateClass(seed, ClassAny) }

// GenerateClass is Generate with the template class forced (the
// cmd/dpfuzz -class soak restriction). ClassAny draws the class from
// the seed; a forced class consumes the same random stream, so the
// rest of the instance matches the ClassAny draw of the same seed.
func GenerateClass(seed uint64, class Class) *Instance {
	rng := rand.New(rand.NewSource(int64(seed)))
	d := 1 + rng.Intn(4)
	cls := Class(rng.Intn(3))
	if class != ClassAny {
		cls = class
	}

	vars := make([]string, d)
	for k := range vars {
		vars[k] = fmt.Sprintf("v%d", k)
	}
	params := []string{"N"}
	if cls != ClassConst {
		params = append(params, "D")
	}
	sp := spec.MustNew(fmt.Sprintf("fuzz_%016x", seed), params, vars)

	in := &Instance{
		Seed: seed,
		Spec: sp,
		N:    engineBaseN[d] + int64(rng.Intn(3)),
	}
	if cls != ClassConst {
		in.D = 1 + int64(rng.Intn(2))
		sp.Bound("D", 1, 2)
	}

	// Base box: guarantees a bounded nonempty space containing the
	// origin at every N >= 0, and both-sided bounds for every variable
	// (a loopgen requirement).
	for _, v := range vars {
		sp.MustConstrain(fmt.Sprintf("0 <= %s <= N", v))
	}

	// Up to two extra random half-spaces, kept only when the origin
	// stays feasible at every parameter value the oracles will use
	// (so the goal cell always exists for the engine layer).
	for extra := rng.Intn(3); extra > 0; extra-- {
		for try := 0; try < 8; try++ {
			if q, ok := randomHalfSpace(rng, vars, in.maxTestN()); ok {
				sp.MustConstrain(q)
				break
			}
		}
	}

	// Templates: one direction sign per dimension (a Validate rule —
	// mixed signs would make the cell order cyclic). Constant-class
	// vectors have components in {0, ±1, ±2}, no zero vectors, distinct
	// when possible. The extended classes anchor every dependence on a
	// random dimension where its whole footprint excludes zero (so no
	// cell can depend on itself at any admissible D), and track the
	// exact footprint reach per dimension over D in [1, 2] so tile
	// widths below can bound the tile-crossing enumeration.
	signs := make([]int64, d)
	for k := range signs {
		signs[k] = 1
		if rng.Intn(2) == 0 {
			signs[k] = -1
		}
	}
	const maxD = 2
	ndeps := 1 + rng.Intn(3)
	estReach := make([]int64, d)
	seen := map[string]bool{}
	addConstDep := func(j int) {
		var vec []int64
		for try := 0; ; try++ {
			vec = make([]int64, d)
			zero := true
			for k := range vec {
				vec[k] = signs[k] * int64(rng.Intn(3))
				if vec[k] != 0 {
					zero = false
				}
			}
			key := fmt.Sprint(vec)
			if !zero && (!seen[key] || try >= 4) {
				seen[key] = true
				break
			}
		}
		for k, r := range vec {
			if a := ints.Abs(r); a > estReach[k] {
				estReach[k] = a
			}
		}
		sp.AddDep(fmt.Sprintf("r%d", j+1), vec...)
	}
	dTerm := func(k, m int64) []spec.AffTerm {
		if m == 0 {
			return nil
		}
		return []spec.AffTerm{{Coef: k * m, Name: "D"}}
	}
	for j := 0; j < ndeps; j++ {
		switch {
		case cls == ClassConst:
			addConstDep(j)
		case cls == ClassVarDist:
			// Point template with parameter-affine components
			// signs[k]*(c + m*D); the first dependence's anchor always
			// carries a D term so every vardist spec exercises the
			// variable distance.
			anchor := rng.Intn(d)
			dep := spec.Dep{Name: fmt.Sprintf("r%d", j+1), Vec: make([]int64, d)}
			pvec := make([]spec.Affine, d)
			anyP := false
			var reach int64
			for k := 0; k < d; k++ {
				c := int64(rng.Intn(3))
				m := int64(rng.Intn(3) / 2)
				if k == anchor {
					if j == 0 {
						m = 1
					}
					if c == 0 && m == 0 {
						c = 1
					}
				}
				dep.Vec[k] = signs[k] * c
				pvec[k] = spec.Affine{Terms: dTerm(signs[k], m)}
				if m != 0 {
					anyP = true
				}
				if reach = c + m*maxD; reach > estReach[k] {
					estReach[k] = reach
				}
			}
			if anyP {
				dep.PVec = pvec
			}
			sp.Deps = append(sp.Deps, dep)
		case j > 0 && rng.Intn(2) == 0:
			// The range class mixes in plain point templates, as real
			// nonserial problems do.
			addConstDep(j)
		default:
			// Range template: base anchored off zero, a sign-disciplined
			// step (sometimes the bounded parameter itself, the
			// knapsack shape), and a count that is constant, shrinks
			// along a loop variable (the matrix-chain shape), or is the
			// bounded parameter plus a constant.
			anchor := rng.Intn(d)
			dep := spec.Dep{Name: fmt.Sprintf("r%d", j+1), Vec: make([]int64, d), Dir: make([]int64, d)}
			base := make([]int64, d)
			dirC := make([]int64, d)
			dirM := make([]int64, d)
			for k := 0; k < d; k++ {
				base[k] = int64(rng.Intn(2))
				dirC[k] = int64(rng.Intn(2))
			}
			if base[anchor] == 0 {
				base[anchor] = 1
			}
			if rng.Intn(3) == 0 {
				dirC[anchor], dirM[anchor] = 0, 1
			}
			zeroDir := true
			for k := 0; k < d; k++ {
				if dirC[k] != 0 || dirM[k] != 0 {
					zeroDir = false
				}
			}
			if zeroDir {
				dirC[anchor] = 1
			}
			var count spec.Affine
			var lmax int64
			switch rng.Intn(3) {
			case 0:
				count = spec.AffConst(2 + int64(rng.Intn(2)))
				lmax = count.K
			case 1:
				k := 2 + int64(rng.Intn(2))
				count = spec.Affine{K: k, Terms: []spec.AffTerm{{Coef: -1, Name: vars[rng.Intn(d)]}}}
				lmax = k
			default:
				count = spec.Affine{K: int64(rng.Intn(2)), Terms: []spec.AffTerm{{Coef: 1, Name: "D"}}}
				lmax = count.K + maxD
			}
			anyPD := false
			pdir := make([]spec.Affine, d)
			for k := 0; k < d; k++ {
				dep.Vec[k] = signs[k] * base[k]
				dep.Dir[k] = signs[k] * dirC[k]
				pdir[k] = spec.Affine{Terms: dTerm(signs[k], dirM[k])}
				if dirM[k] != 0 {
					anyPD = true
				}
				reach := base[k] + (lmax-1)*(dirC[k]+dirM[k]*maxD)
				if reach > estReach[k] {
					estReach[k] = reach
				}
			}
			if anyPD {
				dep.PDir = pdir
			}
			dep.Len = &count
			sp.Deps = append(sp.Deps, dep)
		}
	}

	// Tile widths. The constant class keeps the classic draw (at least
	// the template reach, randomly a little wider). The extended
	// classes use at least half the footprint reach, so a dependence
	// crosses at most two tile boundaries per dimension and the
	// tile-crossing cross product stays well under the analysis cap.
	sp.TileWidths = make([]int64, d)
	if cls == ClassConst {
		lo, hi := sp.Reach()
		for k := range sp.TileWidths {
			need := max(lo[k], hi[k])
			if need == 0 {
				need = 1
			}
			sp.TileWidths[k] = need + int64(rng.Intn(3))
		}
	} else {
		for k := range sp.TileWidths {
			need := (estReach[k] + 1) / 2
			if need == 0 {
				need = 1
			}
			sp.TileWidths[k] = need + int64(rng.Intn(2))
		}
	}

	// Random loop order; random nonempty load-balancing prefix.
	order := append([]string(nil), vars...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	sp.LoopOrder = order
	lb := append([]string(nil), vars...)
	rng.Shuffle(len(lb), func(i, j int) { lb[i], lb[j] = lb[j], lb[i] })
	sp.LBDims = lb[:1+rng.Intn(d)]

	// Runtime knobs for the differential layer.
	in.Nodes = 2 + rng.Intn(2)
	in.Threads = 2 + rng.Intn(2)
	in.SendBufs = 1 + rng.Intn(4)
	in.RecvBufs = 1 + rng.Intn(4)
	rng.Intn(2) // the retired QueueGroups axis: the draw stays so every seed still yields the same instance
	in.Priority = []engine.Priority{engine.ColumnMajor, engine.LevelSet, engine.FIFO}[rng.Intn(3)]
	rng.Intn(2) // the retired Sched axis: the draw stays so every seed still yields the same instance
	in.Balance = []balance.Method{balance.Prefix, balance.Hyperplane}[rng.Intn(2)]
	// The retired PollingRecv axis drew last; nothing consumes the stream
	// after it, so every seed still yields the same instance without it.

	if err := sp.Validate(); err != nil {
		// Unreachable by construction; a panic here is itself a
		// generator bug worth a crasher.
		panic(fmt.Sprintf("dpfuzz: generated invalid spec (seed %d): %v", seed, err))
	}
	return in
}

// randomHalfSpace draws a random inequality over vars (written in the
// spec constraint syntax) whose origin evaluation stays nonnegative
// for every N in [0, maxN] — i.e. keeping the goal feasible — and
// which involves at least one variable. ok is false when the draw is
// origin-infeasible and should be retried.
func randomHalfSpace(rng *rand.Rand, vars []string, maxN int64) (string, bool) {
	cN := int64(rng.Intn(4)) - 1  // [-1, 2]
	c0 := int64(rng.Intn(13)) - 4 // [-4, 8]
	cv := make([]int64, len(vars))
	anyVar := false
	for k := range cv {
		cv[k] = int64(rng.Intn(5)) - 2 // [-2, 2]
		if cv[k] != 0 {
			anyVar = true
		}
	}
	if !anyVar {
		return "", false
	}
	// Origin feasibility for all tested N: cN*N + c0 >= 0 on [0, maxN].
	for _, n := range []int64{0, maxN} {
		if cN*n+c0 < 0 {
			return "", false
		}
	}
	s := ""
	addTerm := func(c int64, name string) {
		if c == 0 {
			return
		}
		switch {
		case s == "" && name == "":
			s = fmt.Sprint(c)
		case s == "":
			s = fmt.Sprintf("%d*%s", c, name)
		default:
			op := " + "
			if c < 0 {
				op, c = " - ", -c
			}
			if name == "" {
				s += op + fmt.Sprint(c)
			} else {
				s += op + fmt.Sprintf("%d*%s", c, name)
			}
		}
	}
	for k, c := range cv {
		addTerm(c, vars[k])
	}
	addTerm(cN, "N")
	addTerm(c0, "")
	return s + " >= 0", true
}
