package serve

import (
	"fmt"
	"math"
	"testing"

	"dpgen/internal/balance"
	"dpgen/internal/engine"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// referenceKernel is each generic kernel's per-cell body: the same
// arithmetic with every invariant re-read through the Ctx at every
// cell. mix and sum ship these bodies; longest reads each offer's
// dependences once per call. The oracle below diffs the served kernels
// against it cell by cell.
func referenceKernel(name string) engine.Kernel {
	switch name {
	case "mix":
		return func(c *engine.Ctx) {
			n := c.N
			c.Done = n
			V, xin := c.V, c.X[c.Inner]
			for off := int64(0); n > 0; n-- {
				v := 1.0
				for k, xv := range c.X {
					if k == c.Inner {
						xv = xin
					}
					v += float64((int64(k+1)*31+xv*17)%23) * 0.0625
				}
				for j, ok := range c.DepValid {
					if !ok {
						v -= float64(j+1) * 0.125
						continue
					}
					w := 0.5 / float64(j+1)
					at, s := c.DepLoc[j]+off, c.DepStride[j]
					for m := c.DepLen[j]; m > 0; m-- {
						v += V[at] * w
						w *= 0.5
						at += s
					}
				}
				V[c.Loc+off] = v
				off += c.Step
				xin += c.Dir
			}
		}
	case "sum":
		return func(c *engine.Ctx) {
			n := c.N
			c.Done = n
			V := c.V
			for off := int64(0); n > 0; n-- {
				v := 1.0
				for j, ok := range c.DepValid {
					if !ok {
						continue
					}
					at, s := c.DepLoc[j]+off, c.DepStride[j]
					for m := c.DepLen[j]; m > 0; m-- {
						v += V[at]
						at += s
					}
				}
				V[c.Loc+off] = v
				off += c.Step
			}
		}
	case "longest":
		return func(c *engine.Ctx) {
			n := c.N
			c.Done = n
			V := c.V
			for off := int64(0); n > 0; n-- {
				v := 0.0
				for j, ok := range c.DepValid {
					if !ok {
						continue
					}
					at, s := c.DepLoc[j]+off, c.DepStride[j]
					for m := c.DepLen[j]; m > 0; m-- {
						if d := V[at] + 1; d > v {
							v = d
						}
						at += s
					}
				}
				V[c.Loc+off] = v
				off += c.Step
			}
		}
	}
	panic("no reference kernel " + name)
}

// servedTriangle is the spec the repository benchmark's serve-mix
// workload queries under longest: two point dependences, so every offer
// takes longest's point loop.
const servedTriangle = `
name tri
params N
vars i j
constraint i >= 0
constraint j >= 0
constraint i + j <= N
dep down <1, 0>
dep right <0, 1>
balance i
tile 16 16
goal 0 0
`

// manyDepsSpec has more dependences than a longest call holds on its
// stack (stackDeps), one of them a range whose length varies along a
// run, so the engine cuts offers where it changes. Its inner loop
// variable is i, the first, so mix adds a coordinate term after the
// inner one.
const manyDepsSpec = `
name many
params N
vars i j
constraint 0 <= i <= N
constraint 0 <= j <= N
dep a <1, 0>
dep b <0, 1>
dep c <1, 1>
dep d <2, 0>
dep e <0, 2>
dep f <2, 1>
dep g <1, 2>
dep h <2, 2>
dep k <3, 0>
dep band <1, 0> step <0, 1> count N - i
bound N 1 64
order j i
tile 8 8
goal 0 0
`

// cellMap is every computed cell's value bits, keyed by coordinates.
type cellMap map[string]uint64

func cellKey(x []int64) string { return fmt.Sprint(x) }

// runCells runs k and captures every cell, reading the Done cells of
// each call back from the buffer: cell t of the run at Loc + t*Step
// with X[Inner] moved t*Dir. With oneCell set every call is cut to a
// one-cell offer (c.N = 1) before k sees it. It also returns the number
// of kernel calls.
func runCells(t *testing.T, tl *tiling.Tiling, k engine.Kernel, params []int64, cfg engine.Config, oneCell bool) (cellMap, int64) {
	t.Helper()
	got := cellMap{}
	var calls int64
	x := make([]int64, len(tl.Spec.Vars))
	wrapped := func(c *engine.Ctx) {
		calls++
		if oneCell {
			c.N = 1
		}
		k(c)
		copy(x, c.X)
		for i := int64(0); i < c.Done; i++ {
			got[cellKey(x)] = math.Float64bits(c.V[c.Loc+i*c.Step])
			x[c.Inner] += c.Dir
		}
	}
	cfg.Nodes, cfg.Threads = 1, 1 // the map and counter are not locked
	if _, err := engine.Run(tl, wrapped, params, cfg); err != nil {
		t.Fatal(err)
	}
	return got, calls
}

// The served kernels compute every cell bit for bit as the per-cell
// reference does, whether the engine offers whole runs, one cell per
// call, or runs the checked path: on point footprints (the served
// triangle), on range footprints (vardistSpecA), and past the stack
// list (manyDepsSpec).
func TestServedKernelsMatchReference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		text   string
		params []int64
	}{
		{"triangle", servedTriangle, []int64{70}},
		{"vardist", vardistSpecA, []int64{30, 3}},
		{"manydeps", manyDepsSpec, []int64{40}},
	} {
		sp, err := spec.Parse(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		if tc.name == "manydeps" && len(sp.Deps) <= stackDeps {
			t.Fatalf("manyDepsSpec has %d dependences, want more than stackDeps = %d", len(sp.Deps), stackDeps)
		}
		tl, err := tiling.New(sp)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range GenericKernels() {
			k, err := lookupKernel(name)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := runCells(t, tl, referenceKernel(name), tc.params, engine.Config{}, false)
			for _, side := range []struct {
				label   string
				cfg     engine.Config
				oneCell bool
			}{
				{"run offers", engine.Config{}, false},
				{"one-cell offers", engine.Config{}, true},
				{"DisableFastPath", engine.Config{DisableFastPath: true}, false},
			} {
				got, calls := runCells(t, tl, k, tc.params, side.cfg, side.oneCell)
				label := fmt.Sprintf("%s/%s/%s", tc.name, name, side.label)
				if len(got) != len(want) {
					t.Fatalf("%s: %d cells, reference %d", label, len(got), len(want))
				}
				for key, w := range want {
					if g, ok := got[key]; !ok || g != w {
						t.Fatalf("%s: cell %s = %v, reference %v", label, key, math.Float64frombits(g), math.Float64frombits(w))
					}
				}
				if side.label == "run offers" && calls >= int64(len(want)) {
					t.Fatalf("%s: %d calls for %d cells: the engine offered no runs", label, calls, len(want))
				}
			}
		}
	}
}

// handOffer is a run offer made outside any engine run: a valid point
// dependence, a valid range (length 1 is a point loop, longer ranges
// walk the footprint) and an invalid one, over values that have no
// order along a footprint, so a kernel that reads the wrong footprint
// cell is seen even where a real run's values are monotone.
func handOffer(length int64) *engine.Ctx {
	c := &engine.Ctx{
		V:         make([]float64, 256),
		Loc:       128,
		DepLoc:    []int64{96, 100, 0},
		DepValid:  []bool{true, true, false},
		DepStride: []int64{0, 3, 0},
		DepLen:    []int64{1, length, 0},
		X:         []int64{5, 7},
		I:         []int64{5, 7},
		Step:      1,
		Inner:     1,
		Dir:       1,
	}
	for i := range c.V {
		c.V[i] = float64(i*7919%251) * 0.37
	}
	return c
}

// On hand-made offers a served kernel writes the reference's bits, and
// a call allocates nothing while the offer's dependences fit its stack
// list.
func TestServedKernelsOnHandOffers(t *testing.T) {
	for _, length := range []int64{1, 4} {
		for _, name := range GenericKernels() {
			k, err := lookupKernel(name)
			if err != nil {
				t.Fatal(err)
			}
			got, want := handOffer(length), handOffer(length)
			got.N, want.N = 16, 16
			k(got)
			referenceKernel(name)(want)
			for i := range want.V {
				if math.Float64bits(got.V[i]) != math.Float64bits(want.V[i]) {
					t.Fatalf("length %d/%s: V[%d] = %v, reference %v", length, name, i, got.V[i], want.V[i])
				}
			}
			c := handOffer(length)
			if a := testing.AllocsPerRun(100, func() { c.N = 16; k(c) }); a != 0 {
				t.Errorf("length %d/%s: %v allocations per call, want 0", length, name, a)
			}
		}
	}
}

// BenchmarkServedKernels reports ns/cell for one thread's
// Prepared.Run of the served triangle at N = 345 — the serve-mix
// workload's run miss — under each generic kernel in run form, beside
// the per-cell reference body (referenceKernel) on the same offers.
//
//	go test -bench ServedKernels -run '^$' ./internal/serve
func BenchmarkServedKernels(b *testing.B) {
	sp, err := spec.Parse(servedTriangle)
	if err != nil {
		b.Fatal(err)
	}
	tl, err := tiling.New(sp)
	if err != nil {
		b.Fatal(err)
	}
	prep, err := engine.Prepare(tl, []int64{345}, 1, balance.Prefix)
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.Config{Nodes: 1, Threads: 1}
	for _, name := range GenericKernels() {
		served, err := lookupKernel(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, side := range []struct {
			label string
			k     engine.Kernel
		}{{"served", served}, {"reference", referenceKernel(name)}} {
			b.Run(name+"/"+side.label, func(b *testing.B) {
				var cells int64
				for i := 0; i < b.N; i++ {
					res, err := prep.Run(side.k, cfg)
					if err != nil {
						b.Fatal(err)
					}
					cells += res.Stats[0].CellsComputed
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
			})
		}
	}
}
