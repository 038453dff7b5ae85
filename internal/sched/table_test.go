package sched

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestTableStress delivers every edge of a tile set into one table from
// four goroutines at once, in a shuffled order: each entry must come
// back ready exactly once, holding exactly the edges addressed to it, and
// every page must end on the free list, no more of them allocated than
// there are page keys. The tiles are a 3-D simplex cut from a box; a
// tile's page is its first coordinate, its slot the other two, and each
// of its three neighbours below is a producer. Every other edge finds
// its slot from the producer's keys (Consumer), the rest from the
// consumer's coordinates.
func TestTableStress(t *testing.T) {
	const (
		workers = 4
		side    = 14
	)
	offsets := [][3]int64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	in := func(c []int64) bool {
		return c[0] >= 0 && c[1] >= 0 && c[2] >= 0 && c[0]+c[1]+c[2] < side
	}
	lo, hi := []int64{0, 0, 0}, []int64{side - 1, side - 1, side - 1}
	pageKey, err := NewKey([]int{0}, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	restKey, err := NewKey([]int{1, 2}, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	tileKey, err := NewKey([]int{0, 1, 2}, lo, hi)
	if err != nil {
		t.Fatal(err)
	}

	// Every (consumer, dependence) edge; per tile the dependences
	// addressed to it; per page key the tiles with any.
	type delivery struct {
		consumer []int64
		dep      int
	}
	var edges []delivery
	want := make([]uint8, tileKey.Len())
	expect := make([]int64, pageKey.Len())
	for i := int64(0); i < side; i++ {
		for j := int64(0); j < side; j++ {
			for k := int64(0); k < side; k++ {
				c := []int64{i, j, k}
				if !in(c) {
					continue
				}
				tk, _ := tileKey.Of(c)
				for d, off := range offsets {
					if in([]int64{i - off[0], j - off[1], k - off[2]}) {
						edges = append(edges, delivery{c, d})
						want[tk] |= 1 << d
					}
				}
				if want[tk] != 0 {
					expect[i]++
				}
			}
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
	name := func(c []int64, dep int) int64 {
		k, _ := tileKey.Of(c)
		return int64(k)*3 + int64(dep) + 1
	}

	// The payload holds the tile and one named slot per dependence.
	type tile struct {
		at    []int64
		edges [3]int64
	}
	// The producer is the consumer + offset in the runtime's sense.
	neg := make([][]int64, len(offsets))
	for d, off := range offsets {
		neg[d] = []int64{-off[0], -off[1], -off[2]}
	}
	tab := NewTable[tile](pageKey, restKey, expect, neg)
	times := make([]int, tileKey.Len())
	var mu sync.Mutex
	var wrong int
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var spare *Item[tile]
			for i := g; i < len(edges); i += workers {
				d := edges[i]
				pk, rk := tab.Keys(d.consumer)
				if i%2 == 1 {
					off := offsets[d.dep]
					var producer Item[tile]
					producer.PK, producer.RK = tab.Keys([]int64{d.consumer[0] - off[0], d.consumer[1] - off[1], d.consumer[2] - off[2]})
					if cpk, crk := tab.Consumer(&producer, d.dep); cpk != pk || crk != rk {
						t.Errorf("consumer %v of dependence %d: keys %d,%d from the producer's, want %d,%d", d.consumer, d.dep, cpk, crk, pk, rk)
					}
				}
				pg, slot := tab.Lookup(pk, rk)
				p := slot.Load()
				if p == nil {
					fresh := spare
					if fresh == nil {
						fresh = new(Item[tile])
					}
					spare = nil
					fresh.Tile = tile{at: d.consumer}
					tk, _ := tileKey.Of(d.consumer)
					fresh.Missing.Store(int64(bits.OnesCount8(want[tk])))
					var used bool
					if p, used = tab.Install(slot, fresh); !used {
						spare = fresh
					}
				}
				p.Tile.edges[d.dep] = name(d.consumer, d.dep)
				if !tab.Arrive(pg, slot, p) {
					continue
				}
				tk, _ := tileKey.Of(p.Tile.at)
				bad := p.Missing.Load() != 0
				for dep, v := range p.Tile.edges {
					if has := want[tk]&(1<<dep) != 0; has != (v == name(p.Tile.at, dep)) || !has && v != 0 {
						bad = true
					}
				}
				mu.Lock()
				times[tk]++
				if bad {
					wrong++
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	if wrong > 0 {
		t.Errorf("%d ready entries with edges missing or misfiled", wrong)
	}
	for k := range want {
		once := 0 // a tile no edge addresses is initial: never ready here
		if want[k] != 0 {
			once = 1
		}
		if times[k] != once {
			t.Fatalf("tile key %d with dependences %03b came back ready %d times", k, want[k], times[k])
		}
	}
	free := 0
	for pg := tab.free; pg != nil; pg = pg.next {
		free++
		for rk := range pg.Slots {
			if pg.Slots[rk].Load() != nil {
				t.Errorf("a free page holds an entry at rest key %d", rk)
			}
		}
	}
	for pk := range tab.pages {
		if tab.Loaded(uint64(pk)) != nil {
			t.Errorf("page key %d still holds a page", pk)
		}
	}
	if n := tab.Allocated(); free != n || n > int(pageKey.Len()) || n == 0 {
		t.Errorf("%d of %d pages on the free list, %d page keys", free, n, pageKey.Len())
	}
	t.Logf("%d edges, %d pages for %d page keys", len(edges), tab.Allocated(), pageKey.Len())
}

// seqTable is a table of two page keys (the first tile coordinate) of
// two slots each (the second), every page completing both its entries.
func seqTable(t *testing.T) *Table[int] {
	t.Helper()
	lo, hi := []int64{0, 0}, []int64{1, 1}
	pageKey, err := NewKey([]int{0}, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	restKey, err := NewKey([]int{1}, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return NewTable[int](pageKey, restKey, []int64{2, 2}, [][]int64{{-1, 0}})
}

// TestTableInstallLoses: of two installs into one slot, the second
// gets the first's entry back and false, so its caller keeps its own
// fresh entry, which the table never references.
func TestTableInstallLoses(t *testing.T) {
	tab := seqTable(t)
	_, slot := tab.Lookup(0, 1)
	first, second := &Item[int]{Tile: 1}, &Item[int]{Tile: 2}
	if p, ok := tab.Install(slot, first); p != first || !ok {
		t.Fatalf("install into an empty slot: %v, %v; want the fresh entry and true", p, ok)
	}
	if p, ok := tab.Install(slot, second); p != first || ok {
		t.Fatalf("second install: entry %v, %v; want the first entry and false", p, ok)
	}
	if slot.Load() != first {
		t.Fatal("the losing install replaced the slot's entry")
	}
}

// TestTableArriveFreesPageOnce walks two page lifetimes on one
// goroutine: a page goes on the free list exactly when the last arrival
// of its last entry lands, once, with every slot empty, and the next
// page key takes that page, so one page is ever allocated.
func TestTableArriveFreesPageOnce(t *testing.T) {
	tab := seqTable(t)
	freeLen := func() (n int) {
		for pg := tab.free; pg != nil && n <= 2; pg = pg.next {
			n++
		}
		return n
	}
	var first *Page[int]
	for pk := uint64(0); pk < 2; pk++ {
		var slots [2]*atomic.Pointer[Item[int]]
		var items [2]*Item[int]
		var pg *Page[int]
		for rk := range slots {
			pg, slots[rk] = tab.Lookup(pk, uint64(rk))
			items[rk] = &Item[int]{Tile: rk}
			items[rk].Missing.Store(2)
			tab.Install(slots[rk], items[rk])
		}
		if pk == 0 {
			first = pg
		} else if pg != first {
			t.Fatal("page key 1 allocated a page while page key 0's was free")
		}
		// Arrivals interleaved across the two entries: only each
		// entry's second one completes it, and only the page's last
		// completion frees the page.
		for _, step := range []struct {
			rk         int
			last, free bool
		}{{0, false, false}, {1, false, false}, {0, true, false}, {1, true, true}} {
			if last := tab.Arrive(pg, slots[step.rk], items[step.rk]); last != step.last {
				t.Fatalf("page %d entry %d: Arrive reported last %v, want %v", pk, step.rk, last, step.last)
			}
			want := 0
			if step.free {
				want = 1
			}
			if free := tab.Loaded(pk) == nil; free != step.free || freeLen() != want {
				t.Fatalf("page %d entry %d: page freed %v with %d on the free list, want freed %v", pk, step.rk, free, freeLen(), step.free)
			}
		}
		for rk := range pg.Slots {
			if pg.Slots[rk].Load() != nil {
				t.Errorf("page %d freed holding an entry at rest key %d", pk, rk)
			}
		}
		if n := tab.Allocated(); n != 1 {
			t.Fatalf("after page %d's lifetime: %d pages allocated, want 1", pk, n)
		}
	}
}

// TestBufs: the stack is LIFO over a fixed capacity, keeps only buffers
// big enough for every edge, and a nil stack keeps nothing.
func TestBufs(t *testing.T) {
	b := NewBufs[int](2, 4)
	if _, ok := b.Get(1); ok {
		t.Fatal("an empty stack handed out a buffer")
	}
	x, y, z := make([]int, 4), make([]int, 6), make([]int, 4)
	if !b.Put(x) || !b.Put(y) || b.Put(z) || len(b.free) != 2 {
		t.Fatalf("pushes past capacity: %d held", len(b.free))
	}
	b.Get(0)
	if b.Put(make([]int, 3)) {
		t.Error("kept a buffer smaller than every edge")
	}
	if s, ok := b.Get(3); !ok || len(s) != 3 || &s[0] != &x[0] {
		t.Errorf("Get(3) = %v, %v: want the first buffer, resliced", s, ok)
	}
	var none *Bufs[int]
	if none.Put(x) {
		t.Error("a nil stack kept a buffer")
	}
}

// TestKeyDelta: over random boxes, key dimension choices and offsets,
// Of(t) − Delta(off) is Of(t − off) for every pair t, t − off inside
// the box, extent-one dimensions included.
func TestKeyDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pairs := 0
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(4)
		lo, hi := make([]int64, d), make([]int64, d)
		for k := range lo {
			lo[k] = rng.Int63n(7) - 3
			hi[k] = lo[k] + rng.Int63n(4)
		}
		dims := rng.Perm(d)[:1+rng.Intn(d)]
		key, err := NewKey(dims, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		off := make([]int64, d)
		for k := range off {
			off[k] = rng.Int63n(5) - 2
		}
		delta := key.Delta(off)
		// Every point of the box, odometer order.
		tile, nb := slices.Clone(lo), make([]int64, d)
		for {
			for k := range tile {
				nb[k] = tile[k] - off[k]
			}
			if kt, ok := key.Of(tile); ok {
				if kn, in := key.Of(nb); in {
					pairs++
					if kt-delta != kn {
						t.Fatalf("box %v..%v dims %v: Of(%v) − Delta(%v) = %d, Of(%v) = %d", lo, hi, dims, tile, off, kt-delta, nb, kn)
					}
				}
			}
			k := 0
			for ; k < d && tile[k] == hi[k]; k++ {
				tile[k] = lo[k]
			}
			if k == d {
				break
			}
			tile[k]++
		}
	}
	if pairs < 1000 {
		t.Errorf("only %d in-box pairs checked", pairs)
	}
}
