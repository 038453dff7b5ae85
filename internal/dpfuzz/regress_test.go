package dpfuzz

import (
	"fmt"
	"testing"

	"dpgen/internal/balance"
	"dpgen/internal/engine"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// regressionCases replays pinned counterexamples and corner-case
// shapes through all four oracle layers. Every entry is a Go literal
// in exactly the form Minimize/GoLiteral reports failures in, so a
// crasher found by the fuzz targets or a cmd/dpfuzz soak is committed
// here by pasting its output into a new build function.
//
// The soak-found entries pin real bugs (with the minimized literal the
// soak reported); the rest pin the corner shapes development showed to
// be the sharp edges of the pipeline — tile width exactly equal to the
// template reach, magnitude-2 dependence components (ghost regions two
// cells deep), thin diagonal iteration spaces from extra half-spaces,
// a 1-D chain (degenerate tile graph), and a reversed loop order with
// all-negative templates.
var regressionCases = []struct {
	name  string
	build func() *Instance
}{
	{
		// Soak seed 10067 (minimized): the extra constraint
		// -v1 - 2*v2 >= 0 pins v1 = v2 = 0, so the tile offset for the
		// v2-crossing dependence is unrealizable and its pack-slab
		// system is rationally infeasible. fm's simplex pruning used to
		// strip an infeasible system bare (every inequality of an
		// infeasible system is vacuously implied by the rest), and
		// loop synthesis then failed with "variable unbounded below".
		name: "soak-10067-infeasible-pack-slab",
		build: func() *Instance {
			in := &Instance{
				Seed: 0x2753, N: 1,
				Nodes: 2, Threads: 2, SendBufs: 2, RecvBufs: 3,
				Priority: engine.ColumnMajor, Balance: balance.Hyperplane,
			}
			sp := spec.MustNew("fuzz_0000000000002753", []string{"N"}, []string{"v0", "v1", "v2", "v3"})
			sp.MustConstrain("v0 >= 0")
			sp.MustConstrain("N - v0 >= 0")
			sp.MustConstrain("v1 >= 0")
			sp.MustConstrain("N - v1 >= 0")
			sp.MustConstrain("v2 >= 0")
			sp.MustConstrain("N - v2 >= 0")
			sp.MustConstrain("v3 >= 0")
			sp.MustConstrain("N - v3 >= 0")
			sp.MustConstrain("-v1 - 2*v2 >= 0")
			sp.AddDep("r1", 0, 0, -1, 0)
			sp.LoopOrder = []string{"v0", "v1", "v2", "v3"}
			sp.LBDims = []string{"v0"}
			sp.TileWidths = []int64{1, 1, 2, 1}
			in.Spec = sp
			return in
		},
	},
	{
		// Soak seed 10629 (minimized): same root cause through a
		// different door — -v0 + 1 >= 0 caps the space at two cells of
		// a width-3 tile, so the offset -1 pack band (i0 >= 2) is
		// infeasible against the tile-space bound t0 >= 0.
		name: "soak-10629-thin-dim-pack-band",
		build: func() *Instance {
			in := &Instance{
				Seed: 0x2985, N: 1,
				Nodes: 2, Threads: 2, SendBufs: 2, RecvBufs: 4,
				Priority: engine.LevelSet, Balance: balance.Hyperplane,
			}
			sp := spec.MustNew("fuzz_0000000000002985", []string{"N"}, []string{"v0", "v1", "v2"})
			sp.MustConstrain("v0 >= 0")
			sp.MustConstrain("N - v0 >= 0")
			sp.MustConstrain("v1 >= 0")
			sp.MustConstrain("N - v1 >= 0")
			sp.MustConstrain("v2 >= 0")
			sp.MustConstrain("N - v2 >= 0")
			sp.MustConstrain("-v0 + 1 >= 0")
			sp.AddDep("r1", -1, 0, 0)
			sp.LoopOrder = []string{"v2", "v1", "v0"}
			sp.LBDims = []string{"v0"}
			sp.TileWidths = []int64{3, 1, 1}
			in.Spec = sp
			return in
		},
	},
	{
		// Soak seed 10709 (minimized): the 10629 shape under a
		// different loop order and Prefix balancing.
		name: "soak-10709-thin-dim-reordered",
		build: func() *Instance {
			in := &Instance{
				Seed: 0x29d5, N: 1,
				Nodes: 2, Threads: 2, SendBufs: 2, RecvBufs: 4,
				Priority: engine.LevelSet, Balance: balance.Prefix,
			}
			sp := spec.MustNew("fuzz_00000000000029d5", []string{"N"}, []string{"v0", "v1", "v2"})
			sp.MustConstrain("v0 >= 0")
			sp.MustConstrain("N - v0 >= 0")
			sp.MustConstrain("v1 >= 0")
			sp.MustConstrain("N - v1 >= 0")
			sp.MustConstrain("v2 >= 0")
			sp.MustConstrain("N - v2 >= 0")
			sp.MustConstrain("-v0 + 1 >= 0")
			sp.AddDep("r2", -1, 0, 0)
			sp.LoopOrder = []string{"v2", "v0", "v1"}
			sp.LBDims = []string{"v0"}
			sp.TileWidths = []int64{3, 1, 1}
			in.Spec = sp
			return in
		},
	},
	{
		// 1-D chain: the degenerate tile graph (a path), smallest
		// possible widths, FIFO priority.
		name: "chain-1d-width-eq-reach",
		build: func() *Instance {
			in := &Instance{
				Seed: 0xc0de0001, N: 25,
				Nodes: 2, Threads: 2, SendBufs: 1, RecvBufs: 1,
				Priority: engine.FIFO, Balance: balance.Prefix,
			}
			sp := spec.MustNew("regress_chain", []string{"N"}, []string{"v0"})
			sp.MustConstrain("0 <= v0 <= N")
			sp.AddDep("r1", -1)
			sp.TileWidths = []int64{1}
			sp.LBDims = []string{"v0"}
			in.Spec = sp
			return in
		},
	},
	{
		// Magnitude-2 components with tile widths exactly equal to the
		// reach: the ghost band is as deep as a whole tile.
		name: "width-eq-reach-mag2",
		build: func() *Instance {
			in := &Instance{
				Seed: 0xc0de0002, N: 11,
				Nodes: 3, Threads: 2, SendBufs: 2, RecvBufs: 2,
				Priority: engine.ColumnMajor, Balance: balance.Prefix,
			}
			sp := spec.MustNew("regress_mag2", []string{"N"}, []string{"v0", "v1"})
			sp.MustConstrain("0 <= v0 <= N")
			sp.MustConstrain("0 <= v1 <= N")
			sp.AddDep("r1", -2, -1)
			sp.AddDep("r2", -1, -2)
			sp.TileWidths = []int64{2, 2}
			sp.LBDims = []string{"v1", "v0"}
			in.Spec = sp
			return in
		},
	},
	{
		// Thin diagonal band: two extra half-spaces squeeze the box to a
		// strip, so most tiles are partial and many are empty.
		name: "thin-diagonal-band",
		build: func() *Instance {
			in := &Instance{
				Seed: 0xc0de0003, N: 12,
				Nodes: 2, Threads: 3, SendBufs: 1, RecvBufs: 3,
				Priority: engine.LevelSet, Balance: balance.Hyperplane,
			}
			sp := spec.MustNew("regress_band", []string{"N"}, []string{"v0", "v1"})
			sp.MustConstrain("0 <= v0 <= N")
			sp.MustConstrain("0 <= v1 <= N")
			sp.MustConstrain("v1 - v0 + 2 >= 0")
			sp.MustConstrain("v0 - v1 + 2 >= 0")
			sp.AddDep("r1", -1, 0)
			sp.AddDep("r2", 0, -1)
			sp.TileWidths = []int64{3, 2}
			sp.LBDims = []string{"v0"}
			in.Spec = sp
			return in
		},
	},
	{
		// All-negative-direction templates with a reversed loop order:
		// the sweep runs from the far corner toward the origin goal.
		name: "reversed-order-positive-deps",
		build: func() *Instance {
			in := &Instance{
				Seed: 0xc0de0004, N: 7,
				Nodes: 3, Threads: 3, SendBufs: 4, RecvBufs: 1,
				Priority: engine.ColumnMajor, Balance: balance.Prefix,
			}
			sp := spec.MustNew("regress_rev", []string{"N"}, []string{"v0", "v1", "v2"})
			sp.MustConstrain("0 <= v0 <= N")
			sp.MustConstrain("0 <= v1 <= N")
			sp.MustConstrain("0 <= v2 <= N")
			sp.AddDep("r1", 1, 0, 1)
			sp.AddDep("r2", 0, 2, 0)
			sp.LoopOrder = []string{"v2", "v0", "v1"}
			sp.TileWidths = []int64{2, 3, 2}
			sp.LBDims = []string{"v2"}
			in.Spec = sp
			return in
		},
	},
	{
		// Mixed template signs across dimensions plus an extra
		// constraint involving the parameter with coefficient 2.
		name: "mixed-signs-param-coeff",
		build: func() *Instance {
			in := &Instance{
				Seed: 0xc0de0005, N: 6,
				Nodes: 2, Threads: 2, SendBufs: 3, RecvBufs: 2,
				Priority: engine.LevelSet, Balance: balance.Prefix,
			}
			sp := spec.MustNew("regress_mixed", []string{"N"}, []string{"v0", "v1", "v2"})
			sp.MustConstrain("0 <= v0 <= N")
			sp.MustConstrain("0 <= v1 <= N")
			sp.MustConstrain("0 <= v2 <= N")
			sp.MustConstrain("-2*v0 - v1 + 2*N + 1 >= 0")
			sp.AddDep("r1", -1, 1, -1)
			sp.AddDep("r2", -2, 0, 0)
			sp.AddDep("r3", 0, 1, 0)
			sp.TileWidths = []int64{2, 2, 1}
			sp.LoopOrder = []string{"v1", "v2", "v0"}
			sp.LBDims = []string{"v1", "v0"}
			in.Spec = sp
			return in
		},
	},
	{
		// The generator-bug shape from development: a half-space whose
		// every coefficient is negative exercised the constraint
		// printer/parser round-trip ("- 1*N" vs "+ -1*N").
		name: "all-negative-halfspace-roundtrip",
		build: func() *Instance {
			in := &Instance{
				Seed: 0xc0de0006, N: 13,
				Nodes: 2, Threads: 2, SendBufs: 1, RecvBufs: 1,
				Priority: engine.FIFO, Balance: balance.Hyperplane,
			}
			sp := spec.MustNew("regress_neg", []string{"N"}, []string{"v0", "v1"})
			sp.MustConstrain("0 <= v0 <= N")
			sp.MustConstrain("0 <= v1 <= N")
			sp.MustConstrain("-1*v0 - 2*v1 + 2*N + 3 >= 0")
			sp.AddDep("r1", -1, -1)
			sp.TileWidths = []int64{2, 2}
			sp.LBDims = []string{"v0"}
			in.Spec = sp
			return in
		},
	},
	{
		// Variable-distance offsets crossing multiple tiles: with D = 2
		// and a width-1 dimension, the -D offset jumps two whole tiles,
		// so the crossing enumeration, ghost shells, and pack slabs all
		// come from the parameter hull rather than the constant vector.
		name: "vardist-multi-tile-crossing",
		build: func() *Instance {
			in := &Instance{
				Seed: 0xc0de0008, N: 12, D: 2,
				Nodes: 2, Threads: 2, SendBufs: 2, RecvBufs: 2,
				Priority: engine.ColumnMajor, Balance: balance.Prefix,
			}
			sp := spec.MustNew("regress_vardist", []string{"N", "D"}, []string{"v0", "v1"})
			sp.MustConstrain("0 <= v0 <= N")
			sp.MustConstrain("0 <= v1 <= N")
			sp.Bound("D", 1, 2)
			sp.MustAddDepSpec("r1", "-D, 0", "", "")
			sp.MustAddDepSpec("r2", "-1, -D", "", "")
			sp.TileWidths = []int64{1, 2}
			sp.LBDims = []string{"v0"}
			in.Spec = sp
			return in
		},
	},
	{
		// Range template on a 1-D chain with width-1 tiles and a count
		// that is the bounded parameter itself: every cell reads a
		// three-cell interval spanning three whole tiles, the deepest
		// multi-tile footprint the generator's width rule allows.
		name: "range-chain-param-count",
		build: func() *Instance {
			in := &Instance{
				Seed: 0xc0de0009, N: 24, D: 2,
				Nodes: 2, Threads: 2, SendBufs: 1, RecvBufs: 2,
				Priority: engine.FIFO, Balance: balance.Prefix,
			}
			sp := spec.MustNew("regress_rangechain", []string{"N", "D"}, []string{"v0"})
			sp.MustConstrain("0 <= v0 <= N")
			sp.Bound("D", 1, 2)
			sp.MustAddDepSpec("r1", "1", "1", "D + 1")
			sp.TileWidths = []int64{1}
			sp.LBDims = []string{"v0"}
			in.Spec = sp
			return in
		},
	},
	{
		// The knapsack shape: a range template whose step distance is
		// the bounded parameter and whose count shrinks along a loop
		// variable, mixed with a plain point template. Exercises the
		// variable step-stride in pack/unpack and the per-cell length
		// clamp hitting zero (base-case cells) away from the boundary.
		name: "range-varstep-shrinking-count",
		build: func() *Instance {
			in := &Instance{
				Seed: 0xc0de000a, N: 11, D: 2,
				Nodes: 3, Threads: 2, SendBufs: 2, RecvBufs: 2,
				Priority: engine.LevelSet, Balance: balance.Hyperplane,
			}
			sp := spec.MustNew("regress_varstep", []string{"N", "D"}, []string{"v0", "v1"})
			sp.MustConstrain("0 <= v0 <= N")
			sp.MustConstrain("0 <= v1 <= N")
			sp.Bound("D", 1, 2)
			sp.MustAddDepSpec("take", "1, 0", "0, D", "3 - v0")
			sp.MustAddDepSpec("r2", "0, 1", "", "")
			sp.TileWidths = []int64{2, 2}
			sp.LBDims = []string{"v1"}
			in.Spec = sp
			return in
		},
	},
	{
		// All-boundary shape: a 1-D chain of six tiles spread over six
		// nodes, so every non-initial tile's single producer lives on
		// another rank. Found against the retired static wavefront phase
		// (whose set was empty on every node here); kept as a chain whose
		// every edge crosses ranks, against the serial reference.
		name: "all-boundary-empty-static-set",
		build: func() *Instance {
			in := &Instance{
				Seed: 0xc0de0007, N: 11,
				Nodes: 6, Threads: 2, SendBufs: 1, RecvBufs: 1,
				Priority: engine.ColumnMajor, Balance: balance.Prefix,
			}
			sp := spec.MustNew("regress_allboundary", []string{"N"}, []string{"v0"})
			sp.MustConstrain("0 <= v0 <= N")
			sp.AddDep("r1", -1)
			sp.TileWidths = []int64{2}
			sp.LBDims = []string{"v0"}
			in.Spec = sp
			return in
		},
	},
	{
		// All-boundary shape for the row plan: a diagonal band three
		// cells wide under 4x4 tiles, so no tile is interior and every
		// row's bounds come from the band; positive templates make both
		// loops descend; and the one range template reads up to three
		// cells along the innermost variable, so its validity interval
		// and its clamped lengths change inside a row. Everything the
		// row path does differently from the checked enumerator, with
		// no interior tile to hide behind (TestRowsRegressionShape
		// keeps the shape honest).
		name: rowsRegression,
		build: func() *Instance {
			in := &Instance{
				Seed: 0xc0de000c, N: 11, D: 2,
				Nodes: 2, Threads: 2, SendBufs: 2, RecvBufs: 2,
				Priority: engine.ColumnMajor, Balance: balance.Prefix,
			}
			sp := spec.MustNew("regress_rowsband", []string{"N", "D"}, []string{"v0", "v1"})
			sp.MustConstrain("0 <= v0 <= N")
			sp.MustConstrain("0 <= v1 <= N")
			sp.MustConstrain("v0 - v1 <= 1")
			sp.MustConstrain("v1 - v0 <= 1")
			sp.Bound("D", 1, 2)
			sp.MustAddDepSpec("diag", "1, 1", "", "")
			sp.MustAddDepSpec("run", "0, 1", "0, 1", "D + 1")
			sp.TileWidths = []int64{4, 4}
			sp.LBDims = []string{"v0"}
			in.Spec = sp
			return in
		},
	},
}

const rowsRegression = "rows-all-boundary-descending-range"

// TestRowsRegressionShape checks that the pinned row-plan case is what
// its comment says: no interior tile, a descending innermost loop, and
// exactly one range template.
func TestRowsRegressionShape(t *testing.T) {
	for _, tc := range regressionCases {
		if tc.name != rowsRegression {
			continue
		}
		in := tc.build()
		tl, err := in.tiling()
		if err != nil {
			t.Fatal(err)
		}
		params := in.pvals(in.N)
		probe := tl.NewProbe(params)
		tiles := 0
		tl.ForEachTile(params, func(tile []int64) bool {
			tiles++
			if probe.Interior(tile) {
				t.Errorf("tile %v is interior", tile)
			}
			return true
		})
		if tiles < 4 {
			t.Errorf("only %d tiles", tiles)
		}
		if inner := tl.Dense[len(tl.Dense)-1]; inner.Dir >= 0 {
			t.Errorf("innermost loop over %s ascends", in.Spec.Vars[inner.Var])
		}
		ranges := 0
		for j := range in.Spec.Deps {
			if in.Spec.Deps[j].IsRange() {
				ranges++
			}
		}
		if ranges != 1 {
			t.Errorf("%d range templates, want 1", ranges)
		}
		return
	}
	t.Fatalf("no regression case named %q", rowsRegression)
}

// TestRegressions replays every pinned case through the full oracle
// stack; each must validate and pass bit-identically, forever.
func TestRegressions(t *testing.T) {
	for _, tc := range regressionCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			in := tc.build()
			if err := in.Spec.Validate(); err != nil {
				t.Fatalf("pinned spec fails validation: %v", err)
			}
			if _, err := CheckAll(in); err != nil {
				t.Errorf("pinned case regressed: %v\nliteral:\n%s", err, GoLiteral(in))
			}
		})
	}
}

// TestGoLiteralRoundTrip: the literal printer must reproduce each
// pinned instance's spec exactly when its constraints are re-parsed —
// the property that makes reported counterexamples trustworthy.
func TestGoLiteralRoundTrip(t *testing.T) {
	for _, tc := range regressionCases {
		in := tc.build()
		c := clone(in)
		if got, want := GoLiteral(c), GoLiteral(in); got != want {
			t.Errorf("%s: clone literal differs:\n%s\nvs\n%s", tc.name, got, want)
		}
	}
}

// TestEmptyTileDepsDropped: a tile offset whose edge slab is empty at
// every admissible parameter vector is no tile dependence — it would
// cost a delivery, a pending count and across ranks a message per edge,
// and carry nothing. Each generated spec below has such offsets; the
// run stays bit-identical without them.
func TestEmptyTileDepsDropped(t *testing.T) {
	for _, tc := range []struct {
		class  Class
		seed   uint64
		want   string // the tile offsets left
		before int    // the tile dependences with the empty ones kept
	}{
		{ClassConst, 9, "[[1 0] [1 1]]", 3},
		{ClassVarDist, 1, "[[1 0] [1 1] [2 0] [2 1]]", 5},
		{ClassRange, 2, "[[0 0 1] [0 1 1] [0 2 1] [1 0 1] [1 1 1] [1 2 1]]", 11},
	} {
		in := GenerateClass(tc.seed, tc.class)
		tl, err := tiling.New(in.Spec)
		if err != nil {
			t.Fatalf("%v seed %d: %v", tc.class, tc.seed, err)
		}
		offs := make([][]int64, len(tl.TileDeps))
		for j := range tl.TileDeps {
			offs[j] = tl.TileDeps[j].Offset
		}
		if got := fmt.Sprint(offs); got != tc.want {
			t.Errorf("%v seed %d: tile offsets %s, want %s (%d before empty slabs were dropped)", tc.class, tc.seed, got, tc.want, tc.before)
		}
		if err := CheckEngine(in); err != nil {
			t.Errorf("%v seed %d: %v\n%s", tc.class, tc.seed, err, GoLiteral(in))
		}
	}
}
