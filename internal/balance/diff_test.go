package balance_test

import (
	"slices"
	"testing"

	"dpgen/internal/balance"
	"dpgen/internal/problems"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// referenceSlabs counts the load-balancing slabs the way the checked
// local nest does — loopgen.(*Nest).Count per tile, the counter the
// production pass replaced and still falls back to — in lexicographic
// order of the coordinates, empty slabs left out.
func referenceSlabs(tl *tiling.Tiling, params []int64) []balance.Slab {
	var slabs []balance.Slab
	tl.ForEachTile(params, func(t []int64) bool {
		lb := tl.LBCoords(t, nil)
		i, found := slices.BinarySearchFunc(slabs, lb, func(s balance.Slab, lb []int64) int { return slices.Compare(s.LB, lb) })
		if !found {
			slabs = slices.Insert(slabs, i, balance.Slab{LB: lb})
		}
		slabs[i].Work += tl.CellCount(params, t)
		slabs[i].Tiles++
		return true
	})
	return slices.DeleteFunc(slabs, func(s balance.Slab) bool { return s.Work == 0 })
}

// referenceOwners is the paper's cut (Section IV-J) over the reference
// slabs: each slab goes to the member under the midpoint of its work
// interval, after the level sort for Hyperplane.
func referenceOwners(slabs []balance.Slab, members []int, m balance.Method) (ordered []balance.Slab, owners []int, total int64) {
	ordered = slices.Clone(slabs)
	if m == balance.Hyperplane {
		level := func(s balance.Slab) (l int64) {
			for _, v := range s.LB {
				l += v
			}
			return l
		}
		slices.SortStableFunc(ordered, func(a, b balance.Slab) int { return int(level(a) - level(b)) })
	}
	for _, s := range ordered {
		total += s.Work
	}
	var cum int64
	for _, s := range ordered {
		pos := min(int((cum+s.Work/2)*int64(len(members))/total), len(members)-1)
		owners = append(owners, members[pos])
		cum += s.Work
	}
	return ordered, owners, total
}

// checkAgainstReference builds the assignment every way the engine
// does and compares all of it with the reference.
func checkAgainstReference(t *testing.T, name string, tl *tiling.Tiling, params []int64) {
	t.Helper()
	ref := referenceSlabs(tl, params)
	for _, m := range []balance.Method{balance.Prefix, balance.Hyperplane} {
		for _, world := range []int{1, 3, 4} {
			memberSets := [][]int{nil}
			if world > 1 {
				memberSets = append(memberSets, []int{0, world - 1}) // a strict subset
			}
			for _, members := range memberSets {
				a, err := balance.BuildMembers(tl, params, world, members, m, nil)
				if err != nil {
					t.Fatalf("%s %v world %d members %v: %v", name, m, world, members, err)
				}
				active := members
				if active == nil {
					active = make([]int, world)
					for i := range active {
						active[i] = i
					}
				}
				slabs, owners, total := referenceOwners(ref, active, m)
				work, tiles := make([]int64, world), make([]int64, world)
				for i, s := range slabs {
					work[owners[i]] += s.Work
					tiles[owners[i]] += s.Tiles
				}
				where := func() string { return name + " " + m.String() }
				if a.Total != total || !slices.Equal(a.Work, work) || !slices.Equal(a.Tiles, tiles) {
					t.Errorf("%s world %d members %v: Total %d Work %v Tiles %v, reference %d %v %v",
						where(), world, members, a.Total, a.Work, a.Tiles, total, work, tiles)
				}
				if !slices.EqualFunc(a.Slabs(), slabs, func(x, y balance.Slab) bool {
					return slices.Equal(x.LB, y.LB) && x.Work == y.Work && x.Tiles == y.Tiles
				}) {
					t.Errorf("%s world %d members %v: slab list differs from the reference", where(), world, members)
					continue
				}
				for i := range slabs {
					if a.SlabOwner(i) != owners[i] {
						t.Errorf("%s world %d members %v: slab %v owned by %d, reference %d", where(), world, members, slabs[i].LB, a.SlabOwner(i), owners[i])
					}
				}
				// Owner and SlabIndex agree with the slab table for every tile.
				tl.ForEachTile(params, func(tile []int64) bool {
					lb := tl.LBCoords(tile, nil)
					i := slices.IndexFunc(slabs, func(s balance.Slab) bool { return slices.Equal(s.LB, lb) })
					if got := a.SlabIndex(tile); got != i {
						t.Fatalf("%s: SlabIndex(%v) = %d, want %d", where(), tile, got, i)
					}
					if i >= 0 && a.Owner(tile) != owners[i] {
						t.Fatalf("%s: Owner(%v) = %d, want %d", where(), tile, a.Owner(tile), owners[i])
					}
					return true
				})
			}
		}
	}
}

// TestBuildMatchesNestCountReference: Work, Tiles, Total, the slab list
// and every owner equal the Nest.Count-based reference for every
// builtin, both methods, 1/3/4 nodes, a strict member subset and one-
// and two-dimensional balance declarations, at registry sizes.
func TestBuildMatchesNestCountReference(t *testing.T) {
	for _, name := range problems.Names() {
		p, err := problems.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for nlb := 1; nlb <= 2 && nlb <= len(p.Spec.Vars); nlb++ {
			sp := *p.Spec
			sp.LBDims = slices.Clone(sp.Order()[:nlb])
			tl, err := tiling.New(&sp)
			if err != nil {
				t.Fatalf("%s lb %v: %v", name, sp.LBDims, err)
			}
			params := p.DefaultParams
			if !tl.BindRows(params).OK() {
				t.Fatalf("%s: row plan proof fails at %v; this test is for the row-plan count", name, params)
			}
			checkAgainstReference(t, name+"/"+sp.LBDims[len(sp.LBDims)-1], tl, params)
		}
	}
}

// TestBuildFallsBackWhenRowProofFails: a slack parameter of 3*2^61
// defeats the row plan's overflow proof without changing one cell; the
// count then comes from the checked nest and the assignment is the same
// as with the proof intact.
func TestBuildFallsBackWhenRowProofFails(t *testing.T) {
	sp := spec.MustNew("slackgrid", []string{"N", "M"}, []string{"x", "y"})
	sp.MustConstrain("0 <= x <= N")
	sp.MustConstrain("0 <= y <= N")
	sp.MustConstrain("x + y <= M")
	sp.AddDep("r", 1, 0)
	sp.AddDep("d", 0, 1)
	sp.TileWidths = []int64{2, 2}
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	const N = 15
	small, huge := []int64{N, 2 * N}, []int64{N, 3 << 61}
	if !tl.BindRows(small).OK() || tl.BindRows(huge).OK() {
		t.Fatal("fixture no longer straddles the row plan's proof limit")
	}
	checkAgainstReference(t, "slackgrid/proof-fails", tl, huge)
	a, err := balance.Build(tl, small, 3, balance.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	b, err := balance.Build(tl, huge, 3, balance.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != (N+1)*(N+1) || b.Total != a.Total || !slices.Equal(a.Work, b.Work) || !slices.Equal(a.Tiles, b.Tiles) {
		t.Errorf("proof holds: Total %d Work %v Tiles %v; proof fails: %d %v %v", a.Total, a.Work, a.Tiles, b.Total, b.Work, b.Tiles)
	}
}

// TestOwnerDoesNotAllocate: the engine calls Owner once per outgoing
// edge; the slab lookup is an integer key, not a built string.
func TestOwnerDoesNotAllocate(t *testing.T) {
	p, err := problems.Get("bandit2")
	if err != nil {
		t.Fatal(err)
	}
	tl, err := tiling.New(p.Spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := balance.Build(tl, []int64{30}, 3, balance.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	in, out := []int64{1, 2, 0, 1}, []int64{99, 0, 0, 0}
	if a.SlabIndex(in) < 0 || a.SlabIndex(out) >= 0 {
		t.Fatalf("SlabIndex: in-space %d, out-of-space %d", a.SlabIndex(in), a.SlabIndex(out))
	}
	if n := testing.AllocsPerRun(200, func() { a.Owner(in); a.Owner(out) }); n != 0 {
		t.Errorf("Owner allocates %v times per call pair, want 0", n)
	}
}
