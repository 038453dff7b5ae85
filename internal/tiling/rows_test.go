package tiling_test

import (
	"fmt"
	"testing"

	"dpgen/internal/dpfuzz"
	"dpgen/internal/problems"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// cellRec is one cell as a kernel would see it.
type cellRec struct {
	i     []int64
	loc   int64
	valid []bool
	lens  []int64
}

// referenceCells walks tile t with the checked enumerator and DepLenAt.
func referenceCells(tl *tiling.Tiling, params, t []int64) []cellRec {
	sp := tl.Spec
	np, nd := len(params), len(sp.Deps)
	vals := make([]int64, sp.Space().N())
	copy(vals, params)
	var out []cellRec
	tl.ForEachCell(params, t, func(i []int64) bool {
		r := cellRec{i: append([]int64(nil), i...), loc: tl.Loc(i), valid: make([]bool, nd), lens: make([]int64, nd)}
		for k := range i {
			vals[np+k] = i[k] + tl.Widths[k]*t[k]
		}
		for j := 0; j < nd; j++ {
			r.lens[j] = tl.DepLenAt(j, vals)
			r.valid[j] = r.lens[j] > 0
		}
		out = append(out, r)
		return true
	})
	return out
}

// walkerCells walks tile t with the row walker, the way the engine's
// row runner does: a run whose range lengths vary is taken in LenRun
// prefixes, every cell of a prefix recorded with the lengths LenRun
// filled at its first cell. A prefix that stops short of a cell with
// the same lengths is an error — LenRun promises the longest one — and
// CellLens must agree with LenRun at every prefix start.
func walkerCells(tl *tiling.Tiling, rw *tiling.RowWalker, t []int64, interior bool) ([]cellRec, error) {
	inner := tl.Dense[len(tl.Dense)-1]
	step := int64(inner.Dir)
	var out []cellRec
	rw.Begin(t, interior)
	for rw.NextRow() {
		for rw.NextRun() {
			var prev []int64
			for i, cnt := rw.From, (rw.To-rw.From)*step+1; cnt > 0; {
				n := int64(1)
				if rw.Ranged {
					n = rw.LenRun(i, cnt)
					if n < 1 || n > cnt {
						return nil, fmt.Errorf("LenRun(%d, %d) = %d at row %v", i, cnt, n, rw.I)
					}
					lens := append([]int64(nil), rw.DepLen...)
					if rw.CellLens(i); fmt.Sprint(lens) != fmt.Sprint(rw.DepLen) {
						return nil, fmt.Errorf("LenRun(%d) filled %v, CellLens %v at row %v", i, lens, rw.DepLen, rw.I)
					}
					if fmt.Sprint(lens) == fmt.Sprint(prev) {
						return nil, fmt.Errorf("LenRun stopped before i=%d with lengths %v unchanged at row %v", i, lens, rw.I)
					}
					prev = lens
				}
				for ; n > 0; n-- {
					rw.I[inner.Var] = i
					out = append(out, cellRec{
						i:     append([]int64(nil), rw.I...),
						loc:   rw.RowLoc + i*inner.Stride,
						valid: append([]bool(nil), rw.DepValid...),
						lens:  append([]int64(nil), rw.DepLen...),
					})
					i += step
					cnt--
				}
			}
		}
	}
	return out, nil
}

// diffWalk diffs the walker's cells of tile t against the reference.
func diffWalk(tl *tiling.Tiling, rw *tiling.RowWalker, t []int64, interior bool, want []cellRec) error {
	got, err := walkerCells(tl, rw, t, interior)
	if err != nil {
		return err
	}
	return diffCells(got, want)
}

func diffCells(got, want []cellRec) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d cells, reference has %d", len(got), len(want))
	}
	for n := range want {
		g, w := fmt.Sprint(got[n]), fmt.Sprint(want[n])
		if g != w {
			return fmt.Errorf("cell %d: {i loc valid len} = %s, reference %s", n, g, w)
		}
	}
	return nil
}

// checkRowPlan diffs the row plan against the checked reference on
// every tile of the space: the cell sequence with its per-cell
// DepValid/DepLen (boundary mode everywhere, interior mode additionally
// where the tile classifies as interior), the partial-slab pack and
// unpack element order, and the folded probe queries. It returns the
// number of tiles that took the interior mode.
func checkRowPlan(tl *tiling.Tiling, params []int64) (interiorTiles int, err error) {
	plan := tl.BindRows(params)
	if !plan.OK() {
		return 0, fmt.Errorf("overflow proof failed at params %v", params)
	}
	rw := plan.NewWalker()
	probe := tl.NewProbe(params)
	d := len(tl.Spec.Vars)
	tvals := make([]int64, len(params)+d)
	copy(tvals, params)

	// Distinct buffer values make a wrong source or target cell visible.
	buf := make([]float64, tl.AllocLen)
	for i := range buf {
		buf[i] = float64(i)
	}
	nb := make([]int64, d)
	tl.ForEachTile(params, func(t []int64) bool {
		want := referenceCells(tl, params, t)
		if err = diffWalk(tl, rw, t, false, want); err != nil {
			err = fmt.Errorf("tile %v: %w", t, err)
			return false
		}
		copy(tvals[len(params):], t)
		interior := tl.InteriorSys.Contains(tvals)
		if probe.Interior(t) != interior || !probe.InSpace(t) {
			err = fmt.Errorf("tile %v: probe Interior %v InSpace %v, systems say %v true",
				t, probe.Interior(t), probe.InSpace(t), interior)
			return false
		}
		if interior {
			interiorTiles++
			if err = diffWalk(tl, rw, t, true, want); err != nil {
				err = fmt.Errorf("interior tile %v: %w", t, err)
				return false
			}
		}
		if got, ref := probe.DepCount(t), tl.DepCount(params, t); got != ref {
			err = fmt.Errorf("tile %v: probe DepCount %d, reference %d", t, got, ref)
			return false
		}
		for dep := range tl.TileDeps {
			// Probe a ring of neighbours, some outside the bounding box.
			for k := range nb {
				nb[k] = t[k] - 2*tl.TileDeps[dep].Offset[k]
			}
			if got, ref := probe.InSpace(nb), tl.InTileSpace(params, nb); got != ref {
				err = fmt.Errorf("tile %v: probe InSpace %v, reference %v", nb, got, ref)
				return false
			}
			var wantPack []float64
			wantUnpack := make(map[int64]float64)
			tl.ForEachEdgeCell(params, t, dep, func(i []int64) bool {
				wantUnpack[tl.UnpackLoc(dep, i)] = float64(len(wantPack))
				wantPack = append(wantPack, buf[tl.Loc(i)])
				return true
			})
			gotPack := rw.PackPartial(dep, t, buf, nil)
			if fmt.Sprint(gotPack) != fmt.Sprint(wantPack) {
				err = fmt.Errorf("tile %v dep %d: packed %v, reference %v", t, dep, gotPack, wantPack)
				return false
			}
			data := make([]float64, len(wantPack))
			for i := range data {
				data[i] = float64(i)
			}
			ghost := make([]float64, tl.AllocLen)
			for i := range ghost {
				ghost[i] = -1
			}
			if n := rw.UnpackPartial(dep, t, ghost, data); n != len(data) {
				err = fmt.Errorf("tile %v dep %d: unpacked %d of %d", t, dep, n, len(data))
				return false
			}
			for loc, v := range ghost {
				if w, ok := wantUnpack[int64(loc)]; (ok && v != w) || (!ok && v != -1) {
					err = fmt.Errorf("tile %v dep %d: ghost[%d] = %v after unpack, reference %v (written %v)",
						t, dep, loc, v, w, ok)
					return false
				}
			}
			if len(data) > 0 && rw.UnpackPartial(dep, t, ghost, data[:len(data)-1]) != -1 {
				err = fmt.Errorf("tile %v dep %d: short edge not reported", t, dep)
				return false
			}
		}
		return true
	})
	return interiorTiles, err
}

// TestRowsMatchEnumeratorBuiltins: the row plan against ForEachCell /
// DepLenAt / ForEachEdgeCell for every builtin at its registry size.
func TestRowsMatchEnumeratorBuiltins(t *testing.T) {
	for _, name := range problems.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := problems.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			tl, err := tiling.New(p.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := checkRowPlan(tl, p.DefaultParams); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRowsMatchEnumeratorFuzz: the same diff on 200 generated specs per
// template class, at the engine-layer size and at a small size whose
// tiles are all degenerate partial tiles. The cost is tiling.New, not
// the diff, and a 4-D spec costs ten times a 3-D one (0.7 s, a pack nest
// per tile crossing), so after the first ten 4-D specs of a class the
// seed stream's later ones are passed over; bandit2, bandit2delay,
// bandit3 and msa4 above cover 4-D and 6-D besides.
func TestRowsMatchEnumeratorFuzz(t *testing.T) {
	specs, max4D := 200, 10
	if testing.Short() {
		specs, max4D = 40, 2
	}
	for _, class := range []dpfuzz.Class{dpfuzz.ClassConst, dpfuzz.ClassVarDist, dpfuzz.ClassRange} {
		class := class
		t.Run(class.String(), func(t *testing.T) {
			t.Parallel()
			interior, n4D := 0, 0
			for seed, done := uint64(1), 0; done < specs; seed++ {
				in := dpfuzz.GenerateClass(seed, class)
				if len(in.Spec.Vars) == 4 {
					if n4D == max4D {
						continue
					}
					n4D++
				}
				done++
				tl, err := tiling.New(in.Spec)
				if err != nil {
					t.Fatalf("seed %d: tiling.New: %v", seed, err)
				}
				for _, N := range []int64{2, in.N} {
					params := []int64{N}
					if len(in.Spec.Params) > 1 {
						params = append(params, in.D)
					}
					k, err := checkRowPlan(tl, params)
					if err != nil {
						t.Fatalf("seed %d params %v: %v\n%s", seed, params, err, dpfuzz.GoLiteral(in))
					}
					interior += k
				}
			}
			if interior == 0 {
				t.Errorf("no generated tile was interior: the interior mode went untested")
			}
		})
	}
}

// TestRowsOverflowProof: a parameter too large for the bind-time proof
// (though every checked evaluation still fits int64) must leave the
// plan unusable and the probe on its checked path, with unchanged
// answers.
func TestRowsOverflowProof(t *testing.T) {
	sp := hugeParamSpec()
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	small := []int64{20, 50}
	if _, err := checkRowPlan(tl, small); err != nil {
		t.Fatalf("small M: %v", err)
	}
	huge := []int64{20, hugeParam}
	plan := tl.BindRows(huge)
	if plan.OK() || plan.NewWalker() != nil {
		t.Fatalf("overflow proof held at M=%d", hugeParam)
	}
	probe, ref := tl.NewProbe(huge), tl.NewProbe(small)
	tl.ForEachTile(huge, func(tt []int64) bool {
		if !probe.InSpace(tt) || probe.Interior(tt) != ref.Interior(tt) || probe.DepCount(tt) != ref.DepCount(tt) ||
			probe.Core(tt) != ref.Core(tt) {
			t.Errorf("tile %v: checked probe disagrees with the folded probe of the same space", tt)
		}
		return true
	})
}

// hugeParam is above the proof limit of 2^62 but leaves M - x - y
// inside int64.
const hugeParam = int64(3) << 61

// hugeParamSpec is a triangle x + y <= N with a second, slack
// constraint x + y <= M whose parameter the overflow test inflates.
func hugeParamSpec() *spec.Spec {
	sp := spec.MustNew("hugeparam", []string{"N", "M"}, []string{"x", "y"})
	sp.MustConstrain("x >= 0")
	sp.MustConstrain("y >= 0")
	sp.MustConstrain("x + y <= N")
	sp.MustConstrain("x + y <= M")
	sp.AddDep("r1", 1, 0)
	sp.AddDep("r2", 0, 1)
	sp.TileWidths = []int64{4, 4}
	return sp
}
