package engine

import (
	"math/rand"
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
// addressed to it, and the table must end with no entry and every page
// back on its free list.
func TestLiveTableStress(t *testing.T) {
	const workers = 4
	tl, params := knapTiling(t), []int64{100, 400, 3}
	prep, err := prepare(tl, params, 1, []int{0}, balance.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	e, nodes, err := newEngine(prep, noopKernel, Config{Threads: workers}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	lt, key, ndeps := nodes[0].live, prep.layout.tile, len(tl.TileDeps)

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

	ready := make([]atomic.Int32, key.Len())
	var wrong atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ds := newDelivState(e)
			for i := g; i < len(edges); i += workers {
				d := edges[i]
				p, dup := lt.addEdge(ds, d.consumer, d.dep, []float64{name(d.consumer, d.dep)})
				if dup {
					wrong.Add(1)
				}
				if p == nil {
					continue
				}
				k, _ := key.Of(p.Tile.coord)
				ready[k].Add(1)
				var got uint64
				for j, ed := range p.Tile.edges {
					if ed.data != nil {
						got |= 1 << j
						if ed.dep != j || len(ed.data) != 1 || ed.data[0] != name(p.Tile.coord, j) {
							wrong.Add(1)
						}
					}
				}
				if got != want[k] {
					wrong.Add(1)
				}
			}
			lt.publish(ds)
		}(g)
	}
	wg.Wait()

	if n := wrong.Load(); n > 0 {
		t.Errorf("%d edges duplicated, misfiled or missing from their ready tile", n)
	}
	tiles := 0
	for k := range want {
		once := int32(0) // a tile no edge addresses is initial: never ready here
		if want[k] != 0 {
			tiles, once = tiles+1, 1
		}
		if n := ready[k].Load(); n != once {
			t.Fatalf("tile key %d with dependences %b came back ready %d times", k, want[k], n)
		}
	}
	if n := lt.entries.Load(); n != 0 {
		t.Errorf("%d entries left in the table", n)
	}
	free := 0
	for pg := lt.free; pg != nil; pg = pg.next {
		free++
	}
	for sk := range lt.pages {
		if lt.pages[sk].Load() != nil {
			t.Errorf("slab key %d still holds a page", sk)
		}
	}
	t.Logf("%d edges, %d tiles, %d pages", len(edges), tiles, lt.allocated)
	if free != lt.allocated {
		t.Errorf("%d of %d pages on the free list", free, lt.allocated)
	}
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
		lt := n.live
		t.Logf("%s: %d tiles, %d pages of %d slots for %d slabs", tc.name, n.executed, lt.allocated, lt.layout.rest.Len(), len(lt.pages))
		if n.executed != tc.tiles || lt.allocated != tc.pages || len(lt.pages) != tc.slabs || lt.layout.rest.Len() != uint64(tc.slots) {
			t.Errorf("%s: %d tiles, %d pages of %d slots for %d slabs; want %d, %d, %d, %d", tc.name,
				n.executed, lt.allocated, lt.layout.rest.Len(), len(lt.pages), tc.tiles, tc.pages, tc.slots, tc.slabs)
		}
	}
}
