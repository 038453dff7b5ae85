package balance

import "testing"

func TestBuildMembersSubset(t *testing.T) {
	// A world of 4 with members {0, 2}: every slab must be owned by a
	// member, and the non-members must carry zero work.
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	params := []int64{16}
	a, err := BuildMembers(tl, params, 4, []int{0, 2}, Prefix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Nodes != 4 || len(a.Work) != 4 {
		t.Fatalf("Nodes = %d, len(Work) = %d, want 4", a.Nodes, len(a.Work))
	}
	for _, r := range []int{1, 3} {
		if a.Work[r] != 0 || a.Tiles[r] != 0 {
			t.Errorf("non-member rank %d owns work %d / tiles %d", r, a.Work[r], a.Tiles[r])
		}
	}
	for i := range a.Slabs() {
		if o := a.SlabOwner(i); o != 0 && o != 2 {
			t.Errorf("slab %d owned by non-member rank %d", i, o)
		}
	}
	// The two-member cuts must match a plain two-node build, rank-mapped.
	b, err := Build(tl, params, 2, Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if a.Work[0] != b.Work[0] || a.Work[2] != b.Work[1] {
		t.Errorf("member work (%d, %d) differs from 2-node build (%d, %d)",
			a.Work[0], a.Work[2], b.Work[0], b.Work[1])
	}
}

func TestRebalanceDeterministicAndConserving(t *testing.T) {
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	params := []int64{16}
	prev, err := BuildMembers(tl, params, 4, []int{0, 1}, Prefix, nil)
	if err != nil {
		t.Fatal(err)
	}
	slabs := prev.Slabs()
	// Pretend the first third of each rank-0 slab count is executed.
	executed := make([]int64, len(slabs))
	for i, s := range slabs {
		if prev.SlabOwner(i) == 0 {
			executed[i] = s.Tiles / 3
		}
	}
	members := []int{0, 1, 2, 3}
	a1, mv1, err := Rebalance(prev, members, executed)
	if err != nil {
		t.Fatal(err)
	}
	a2, mv2, err := Rebalance(prev, members, executed)
	if err != nil {
		t.Fatal(err)
	}
	if mv1 != mv2 {
		t.Errorf("move stats differ across identical reruns: %+v vs %+v", mv1, mv2)
	}
	var remTiles, gotTiles int64
	for i, s := range slabs {
		if a1.SlabOwner(i) != a2.SlabOwner(i) {
			t.Fatalf("slab %d owner differs across identical reruns: %d vs %d",
				i, a1.SlabOwner(i), a2.SlabOwner(i))
		}
		remTiles += s.Tiles - executed[i]
	}
	for _, n := range a1.Tiles {
		gotTiles += n
	}
	if gotTiles != remTiles {
		t.Errorf("rebalanced tiles sum to %d, want the %d unexecuted tiles", gotTiles, remTiles)
	}
	if mv1.MovedTiles == 0 {
		t.Error("scaling 2 -> 4 members moved no tiles")
	}
	// Every slab with remaining tiles must land on a member.
	for i, s := range slabs {
		if s.Tiles-executed[i] > 0 {
			o := a1.SlabOwner(i)
			if o < 0 || o > 3 {
				t.Errorf("slab %d owner %d out of world", i, o)
			}
		}
	}
}

func TestRebalanceShrinkKeepsSurvivors(t *testing.T) {
	// Shrinking 3 -> 2 members: every slab previously owned by a
	// survivor whose load allows it should stay put; rank 2's slabs must
	// all move off it.
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	params := []int64{16}
	prev, err := BuildMembers(tl, params, 3, nil, Prefix, nil)
	if err != nil {
		t.Fatal(err)
	}
	executed := make([]int64, len(prev.Slabs()))
	a, mv, err := Rebalance(prev, []int{0, 1}, executed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prev.Slabs() {
		if a.SlabOwner(i) == 2 {
			t.Errorf("slab %d still owned by departed rank 2", i)
		}
	}
	if mv.MovedTiles == 0 {
		t.Error("departure moved no tiles")
	}
}
