package engine

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dpgen/internal/balance"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// TestLiveTableStress delivers every edge of knap's quick instance into
// one node's table from four goroutines at once, in a shuffled order:
// each tile must come back ready exactly once, holding exactly the edges
// addressed to it. A plain table must end with no entry and no page
// held (sched's TestTableStress checks the free list itself). A tracking table gets every edge twice — the
// second delivery a duplicate, a zero-length edge's included — and once
// every tile retires, each slot holds executedTile, a third pass is all
// duplicates and the per-slab census counts every slab's tiles.
func TestLiveTableStress(t *testing.T) {
	const workers = 4
	tl, params := knapTiling(t), []int64{100, 400, 3}
	prep, err := prepare(tl, params, 1, []int{0}, balance.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	n := newTestNode(prep, noopKernel, Config{Threads: workers})
	key, err := tl.NewTileKey(params)
	if err != nil {
		t.Fatal(err)
	}
	ndeps := len(tl.TileDeps)

	// Every (consumer, dependence) edge, and per tile the dependences
	// addressed to it. An edge's one value names it.
	type delivery struct {
		consumer []int64
		dep      int
	}
	var edges []delivery
	want := make([]uint64, key.Len())
	probe := tl.NewProbe(params)
	tl.ForEachTile(params, func(tt []int64) bool {
		for j, td := range tl.TileDeps {
			c := make([]int64, len(tt))
			for k := range tt {
				c[k] = tt[k] - td.Offset[k]
			}
			if probe.InSpace(c) {
				edges = append(edges, delivery{c, j})
				k, _ := key.Of(c)
				want[k] |= 1 << j
			}
		}
		return true
	})
	rand.New(rand.NewSource(1)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	name := func(c []int64, dep int) float64 {
		k, _ := key.Of(c)
		return float64(int(k)*ndeps + dep)
	}
	// The first edge in the shuffled order is the zero-length one.
	empty := func(c []int64, dep int) bool { return slices.Equal(c, edges[0].consumer) && dep == edges[0].dep }
	payload := func(d delivery) []float64 {
		if empty(d.consumer, d.dep) {
			return []float64{}
		}
		return []float64{name(d.consumer, d.dep)}
	}

	// deliver sends every edge copies times, spread over the workers,
	// and returns the tiles that came back ready; wrong counts edges
	// misfiled or missing from their ready tile.
	deliver := func(lt *liveTable, copies int) (ready []*pendTile, wrong int64) {
		var mu sync.Mutex
		var bad atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ds := newDelivState(prep)
				for i := g; i < copies*len(edges); i += workers {
					d := edges[i%len(edges)]
					pk, rk := lt.tab.Keys(d.consumer)
					p, _ := lt.addEdge(ds, d.consumer, pk, rk, d.dep, payload(d))
					if p == nil {
						continue
					}
					if p.PK != pk || p.RK != rk {
						bad.Add(1)
					}
					k, _ := key.Of(p.Tile.coord)
					var got uint64
					for j, ed := range p.Tile.edges {
						if ed.data == nil {
							continue
						}
						got |= 1 << j
						n := 1
						if empty(p.Tile.coord, j) {
							n = 0
						}
						if ed.dep != j || len(ed.data) != n || n == 1 && ed.data[0] != name(p.Tile.coord, j) {
							bad.Add(1)
						}
					}
					if got != want[k] {
						bad.Add(1)
					}
					mu.Lock()
					ready = append(ready, p)
					mu.Unlock()
				}
				lt.publish(ds)
			}(g)
		}
		wg.Wait()
		return ready, bad.Load()
	}
	// check wants every tile an edge addresses ready exactly once.
	check := func(t *testing.T, lt *liveTable, ready []*pendTile, wrong int64) {
		t.Helper()
		if wrong > 0 {
			t.Errorf("%d edges duplicated, misfiled or missing from their ready tile", wrong)
		}
		times := make([]int, key.Len())
		for _, p := range ready {
			k, _ := key.Of(p.Tile.coord)
			times[k]++
		}
		for k := range want {
			once := 0 // a tile no edge addresses is initial: never ready here
			if want[k] != 0 {
				once = 1
			}
			if times[k] != once {
				t.Fatalf("tile key %d with dependences %b came back ready %d times", k, want[k], times[k])
			}
		}
		if n := lt.entries.Load(); n != 0 {
			t.Errorf("%d entries left in the table", n)
		}
		t.Logf("%d edges, %d tiles, %d pages", len(edges), len(ready), lt.tab.Allocated())
	}

	t.Run("plain", func(t *testing.T) {
		lt := n.live
		ready, wrong := deliver(lt, 1)
		check(t, lt, ready, wrong)
		for sk := uint64(0); sk < lt.tab.PageKey.Len(); sk++ {
			if lt.tab.Loaded(sk) != nil {
				t.Errorf("slab key %d still holds a page", sk)
			}
		}
	})

	t.Run("tracking", func(t *testing.T) {
		lt := newLiveTable(prep.layout, tl.DepOffsets(), true, n.prepTile)
		ready, wrong := deliver(lt, 2)
		check(t, lt, ready, wrong)
		if lt.dups != int64(len(edges)) {
			t.Errorf("%d duplicates dropped of %d edges delivered twice", lt.dups, len(edges))
		}

		ds := newDelivState(prep)
		for _, c := range prep.assign.Initial {
			p := lt.newTile(ds, c)
			if !lt.seed(p) {
				t.Fatalf("initial tile %v refused", c)
			}
			ready = append(ready, p)
		}
		var max cellMax
		for _, p := range ready {
			lt.retire(p, &max, cellMax{})
		}
		tiles := 0
		tl.ForEachTile(params, func(tt []int64) bool {
			tiles++
			if _, slot := lt.tab.Lookup(lt.tab.Keys(tt)); slot.Load() != executedTile {
				t.Fatalf("retired tile %v holds %p in its slot", tt, slot.Load())
			}
			return true
		})
		if len(ready) != tiles {
			t.Errorf("%d tiles retired of %d", len(ready), tiles)
		}
		if _, wrong := deliver(lt, 1); wrong != 0 || lt.dups != 2*int64(len(edges)) {
			t.Errorf("third pass: %d duplicates dropped in all, want %d", lt.dups, 2*len(edges))
		}
		slabs := prep.assign.Slabs()
		for i, c := range lt.executedPerSlab(slabs) {
			if c != slabs[i].Tiles {
				t.Errorf("slab %v: census %d of %d tiles", slabs[i].LB, c, slabs[i].Tiles)
			}
		}
	})
}

// TestPendingPagesPeak pins the most pages a one-worker run's table
// holds at once. Every page goes back to the free list when its slab
// finishes, but on knap and on the served triangle the column-major
// wavefront keeps nearly every slab in flight from start to end.
func TestPendingPagesPeak(t *testing.T) {
	tri := spec.MustNew("tri", []string{"N"}, []string{"i", "j"})
	tri.MustConstrain("i >= 0")
	tri.MustConstrain("j >= 0")
	tri.MustConstrain("i + j <= N")
	tri.AddDep("down", 1, 0)
	tri.AddDep("right", 0, 1)
	tri.TileWidths = []int64{16, 16}
	tri.LBDims = []string{"i"}
	triTl, err := tiling.New(tri)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		tl           *tiling.Tiling
		params       []int64
		pages, slabs int
		slots, tiles int64
	}{
		{"knap", knapTiling(t), []int64{1000, 4000, 3}, 125, 125, 501, 62625},
		{"triangle", triTl, []int64{350}, 21, 22, 22, 253},
	} {
		n, _, step := serialWorker(t, tc.tl, tc.params)
		for step() {
		}
		tab := n.live.tab
		pages, slots, slabs := tab.Allocated(), tab.RestKey.Len(), int(tab.PageKey.Len())
		t.Logf("%s: %d tiles, %d pages of %d slots for %d slabs", tc.name, n.executed, pages, slots, slabs)
		if n.executed != tc.tiles || pages != tc.pages || slabs != tc.slabs || slots != uint64(tc.slots) {
			t.Errorf("%s: %d tiles, %d pages of %d slots for %d slabs; want %d, %d, %d, %d", tc.name,
				n.executed, pages, slots, slabs, tc.tiles, tc.pages, tc.slots, tc.slabs)
		}
	}
}
