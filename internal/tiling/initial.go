package tiling

import (
	"fmt"

	"dpgen/internal/fm"
	"dpgen/internal/ints"
	"dpgen/internal/lin"
	"dpgen/internal/loopgen"
)

// InitialTilesFast finds the tiles with no satisfiable dependencies by
// scanning only the boundary bands of the tile space, the way Section
// IV-K scans faces/edges/corners instead of the whole space.
//
// The observation: pick any tile dependence offset o*. A tile t with no
// dependencies in particular has t+o* outside the tile space, so some
// tile-space inequality c (with c(t+o*) = c(t) + shift < 0 <= c(t)) is
// within a band 0 <= c(t) < -shift of being tight at t. Scanning those
// bands — one derived system per (o*, violable constraint) pair — visits
// a boundary-sized O(n^{d-1}) subset instead of the Θ(n^d/Πw) tile
// space; each candidate is then checked with DepCount.
//
// The total tile count, which the runtime needs for termination, is
// obtained from TileNest.Count (closed-form innermost level) rather than
// a full enumeration.
func (tl *Tiling) InitialTilesFast(params []int64) (initial [][]int64, total int64, err error) {
	if len(tl.TileDeps) == 0 {
		return nil, 0, fmt.Errorf("tiling: no tile dependencies")
	}
	if err := tl.buildBandNests(); err != nil {
		return nil, 0, err
	}
	key, err := tl.NewTileKey(params)
	if err != nil {
		return nil, 0, err
	}
	total = tl.TileNest.Count(params)
	probe := tl.NewProbe(params)
	seen := map[uint64]bool{}
	d := len(tl.Spec.Vars)
	t := make([]int64, d)
	for _, nest := range tl.bandNests {
		np := len(params)
		nest.Enumerate(params, func(vals []int64) bool {
			copy(t, vals[np:])
			k, _ := key.Of(t) // a band is inside the tile space
			if seen[k] {
				return true
			}
			seen[k] = true
			if probe.DepCount(t) == 0 {
				initial = append(initial, append([]int64(nil), t...))
			}
			return true
		})
	}
	return initial, total, nil
}

// buildBandNests constructs the boundary band scan nests for the first
// tile dependence offset (any single offset suffices for completeness;
// see InitialTilesFast).
func (tl *Tiling) buildBandNests() error {
	if tl.bandNests != nil {
		return nil
	}
	o := tl.TileDeps[0].Offset
	d := len(tl.Spec.Vars)
	tOrder := make([]string, d)
	for i, k := range tl.orderIdx {
		tOrder[i] = tName(tl.Spec.Vars[k])
	}
	var nests []*loopgen.Nest
	for _, q := range tl.TileSys.Ineqs {
		// shift = sum over dims of coeff(t_k) * o_k.
		var shift int64
		for k, v := range tl.Spec.Vars {
			shift += q.Coeff(tName(v)) * o[k]
		}
		if shift >= 0 {
			continue // this constraint can never be violated by o
		}
		// Band: 0 <= q(t) <= -shift - 1 within the tile space.
		sys := tl.TileSys.Clone()
		sys.Add(lin.Ineq{Expr: q.Expr.Neg().AddConst(ints.NegChecked(shift) - 1)})
		nest, err := loopgen.Build(sys, tOrder, fm.Options{Prune: fm.PruneSimplex})
		if err != nil {
			if err == fm.ErrInfeasible {
				continue // empty band
			}
			return fmt.Errorf("tiling: band nest: %w", err)
		}
		nests = append(nests, nest)
	}
	if len(nests) == 0 {
		return fmt.Errorf("tiling: no boundary bands for offset %v — dependence cycle?", o)
	}
	tl.bandNests = nests
	return nil
}
