package sched

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// item builds a test item whose payload is its own name.
func item(name int, shard int, static bool, level int64, key ...int64) *Item[int] {
	return &Item[int]{Key: key, Level: level, Shard: shard, Static: static, Tile: name}
}

// drain pops worker w's view of the pool until it is empty.
func drain(p *Pool[int], w int) (names []int) {
	for {
		it, _ := p.Pop(w)
		if it == nil {
			return names
		}
		names = append(names, it.Tile)
	}
}

// TestHeapBeforeDeque: a shard hands out its dynamically released items
// (the communication-causing ones) before any static one, whatever the
// push order, to its owner and to a thief alike.
func TestHeapBeforeDeque(t *testing.T) {
	for _, thief := range []bool{false, true} {
		p := NewPool[int](2, ColumnMajor)
		p.Push(item(1, 0, true, 0))
		p.Push(item(2, 0, false, 0, 5))
		p.Push(item(3, 0, true, 0))
		p.Push(item(4, 0, false, 0, 3))
		w := 0
		if thief {
			w = 1
		}
		got := drain(p, w)
		if !slices.Equal(got[:2], []int{4, 2}) {
			t.Errorf("thief=%v: popped %v, want the heap items 4, 2 first", thief, got)
		}
		if len(got) != 4 || p.Len() != 0 {
			t.Errorf("thief=%v: popped %v, %d left queued", thief, got, p.Len())
		}
	}
}

// TestDequeEnds: the owner takes the newest static item (LIFO), a thief
// the oldest (FIFO), and an emptied deque starts over.
func TestDequeEnds(t *testing.T) {
	p := NewPool[int](2, ColumnMajor)
	for round := 0; round < 2; round++ {
		for name := 1; name <= 4; name++ {
			p.Push(item(name, 0, true, 0))
		}
		var got []int
		for _, w := range []int{0, 1, 1, 0} {
			it, stolen := p.Pop(w)
			if it == nil || stolen != (w == 1) {
				t.Fatalf("round %d worker %d: pop %v stolen %v", round, w, it, stolen)
			}
			got = append(got, it.Tile)
		}
		if want := []int{4, 1, 2, 3}; !slices.Equal(got, want) {
			t.Errorf("round %d: popped %v, want %v (owner tail, thief head)", round, got, want)
		}
	}
	steals, local, peak := p.Counts()
	if steals != 4 || local != 4 || peak != 4 {
		t.Errorf("counts: steals %d local %d peak %d, want 4 4 4", steals, local, peak)
	}
}

// TestPopOrder: the three policies on one fixed item set.
func TestPopOrder(t *testing.T) {
	type in struct {
		name  int
		level int64
		key   []int64
	}
	set := []in{ // pushed in this order, so Seq = position
		{1, 2, []int64{0, -2}},
		{2, 1, []int64{-1, 0}},
		{3, 3, []int64{-2, -1}},
		{4, 1, []int64{0, -1}},
		{5, 2, []int64{-1, -1}},
		{6, 3, []int64{-2, -1}}, // key tie with 3: arrival order decides
	}
	for prio, want := range map[Priority][]int{
		ColumnMajor: {3, 6, 5, 2, 1, 4},
		LevelSet:    {2, 4, 5, 1, 3, 6},
		FIFO:        {1, 2, 3, 4, 5, 6},
	} {
		p := NewPool[int](1, prio)
		for _, s := range set {
			p.Push(item(s.name, 0, false, s.level, s.key...))
		}
		if got := drain(p, 0); !slices.Equal(got, want) {
			t.Errorf("%v: popped %v, want %v", prio, got, want)
		}
	}
}

// TestHeapRandom: pops come out sorted by Less for random pushes
// interleaved with pops, under every policy.
func TestHeapRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, prio := range []Priority{ColumnMajor, LevelSet, FIFO} {
		h := Heap[int]{Prio: prio}
		var seq int64
		push := func() {
			seq++
			k := []int64{rng.Int63n(4), rng.Int63n(4)}
			h.Push(&Item[int]{Key: k, Level: -k[0] - k[1], Seq: seq})
		}
		for i := 0; i < 200; i++ {
			push()
		}
		for h.Len() > 0 {
			a := h.Pop()
			for _, b := range h.items {
				if h.Less(b, a) {
					t.Fatalf("%v: popped %+v while %+v was queued", prio, a, b)
				}
			}
			if rng.Intn(3) == 0 && seq < 400 {
				push()
			}
		}
	}
}

// TestHomeShard: the home hash is a function of the coordinates alone,
// in range, and not constant.
func TestHomeShard(t *testing.T) {
	p := NewPool[int](4, ColumnMajor)
	seen := map[int]bool{}
	for i := int64(0); i < 8; i++ {
		for j := int64(-4); j < 4; j++ {
			c := []int64{i, j}
			h := p.Home(c)
			if h < 0 || h >= 4 || h != p.Home(c) {
				t.Fatalf("Home(%v) = %d", c, h)
			}
			seen[h] = true
		}
	}
	if len(seen) != 4 {
		t.Errorf("an 8x8 tile grid landed on shards %v of 4", seen)
	}
	if one := NewPool[int](1, ColumnMajor); one.Home([]int64{7, 7}) != 0 {
		t.Error("single-shard pool hashed away from shard 0")
	}
}

// TestRemoveIf: dropped items leave heap and deque, the rest keep their
// order, and the queued count follows.
func TestRemoveIf(t *testing.T) {
	p := NewPool[int](2, ColumnMajor)
	for name := 11; name <= 16; name++ {
		p.Push(item(name, 1, true, 0))
	}
	if it, stolen := p.Pop(0); it.Tile != 11 || !stolen {
		t.Fatalf("stole %d, want the deque head 11", it.Tile)
	}
	for name := 1; name <= 6; name++ {
		p.Push(item(name, 0, false, 0, int64(name)))
	}
	n := p.RemoveIf(func(it *Item[int]) bool { return it.Tile%2 == 0 })
	if n != 6 || p.Len() != 5 {
		t.Fatalf("removed %d, %d left; want 6 and 5", n, p.Len())
	}
	if got, want := drain(p, 0), []int{1, 3, 5, 13, 15}; !slices.Equal(got, want) {
		t.Errorf("after RemoveIf popped %v, want %v", got, want)
	}
}

// TestWavefrontCap: the level-count cap lives in the constructor.
func TestWavefrontCap(t *testing.T) {
	if wf := NewWavefront[int](-3, MaxLevels-4, 2); wf == nil || len(wf.remain) != MaxLevels {
		t.Errorf("a range of exactly MaxLevels levels was refused")
	}
	if wf := NewWavefront[int](-3, MaxLevels-3, 2); wf != nil {
		t.Errorf("a range of MaxLevels+1 levels got %d counters", len(wf.remain))
	}
	if wf := NewWavefront[int](5, 4, 2); wf != nil {
		t.Error("an empty level range got a wavefront")
	}
}

// TestWavefrontProperty drives random level structures to completion in
// a random legal order and checks the release rule at every hand-out:
// no static item of level L before every lower level's counter reached
// zero, each item exactly once, and extra Advance calls release nothing
// that was already released.
func TestWavefrontProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		lo := rng.Int63n(20) - 10
		nlv := 1 + rng.Intn(12)
		workers := 1 + rng.Intn(4)
		wf := NewWavefront[int](lo, lo+int64(nlv)-1, workers)
		remain := make([]int, nlv) // the test's own per-level counters
		var runnable []*Item[int]  // dynamic tiles, and static ones once released
		released := map[int]bool{}
		total, name := 0, 0
		for l := 0; l < nlv; l++ {
			level := lo + int64(l)
			for i := rng.Intn(4); i > 0; i-- { // dynamic: ready whenever their edges say
				wf.Count(level)
				runnable = append(runnable, &Item[int]{Level: level, Tile: -1})
				remain[l]++
				total++
			}
			for i := rng.Intn(4); i > 0; i-- {
				name++
				wf.Count(level)
				wf.Add(&Item[int]{Level: level, Tile: name})
				remain[l]++
				total++
			}
		}
		if wf.Static() != int64(name) {
			t.Fatalf("trial %d: Static() = %d, added %d", trial, wf.Static(), name)
		}
		handOut := func(items []*Item[int]) {
			for _, it := range items {
				if !it.Static || released[it.Tile] {
					t.Fatalf("trial %d: item %d handed out twice (or not static)", trial, it.Tile)
				}
				released[it.Tile] = true
				if it.Shard < 0 || it.Shard >= workers {
					t.Fatalf("trial %d: item %d sent to shard %d of %d", trial, it.Tile, it.Shard, workers)
				}
				for l := 0; l < int(it.Level-lo); l++ {
					if remain[l] != 0 {
						t.Fatalf("trial %d: level %d item released with %d tiles left at level %d",
							trial, it.Level, remain[l], lo+int64(l))
					}
				}
				runnable = append(runnable, it)
			}
		}
		handOut(wf.Advance())
		for done := 0; done < total; done++ {
			if len(runnable) == 0 {
				t.Fatalf("trial %d: stuck with %d of %d tiles retired", trial, done, total)
			}
			i := rng.Intn(len(runnable))
			it := runnable[i]
			runnable = append(runnable[:i], runnable[i+1:]...)
			remain[it.Level-lo]--
			handOut(wf.Retire(it.Level))
			if rng.Intn(4) == 0 {
				handOut(wf.Advance()) // re-entry: nothing twice
			}
		}
		if len(released) != name {
			t.Fatalf("trial %d: %d of %d static items released", trial, len(released), name)
		}
	}
}

// TestWavefrontConcurrent runs pool and wavefront together the way a
// runtime does, under the race detector in CI: workers pop, check the
// release rule against the test's own counters, retire and push what
// that releases.
func TestWavefrontConcurrent(t *testing.T) {
	const nlv, perLevel, workers = 40, 9, 4
	p := NewPool[int](workers, ColumnMajor)
	wf := NewWavefront[int](0, nlv-1, workers)
	var remain [nlv]atomic.Int64
	var executed atomic.Int64
	push := func(items []*Item[int]) {
		for _, it := range items {
			p.Push(it)
		}
	}
	for l := int64(0); l < nlv; l++ {
		for i := 0; i < perLevel; i++ {
			wf.Count(l)
			remain[l].Add(1)
			it := &Item[int]{Level: l, Key: []int64{-l, int64(i)}}
			if i%3 == 0 { // a dynamic tile, fed from outside: ready at once here
				it.Shard = p.Home(it.Key)
				p.Push(it)
			} else {
				wf.Add(it)
			}
		}
	}
	push(wf.Advance())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				e0 := p.Epoch()
				it, _ := p.Pop(w)
				if it == nil {
					if _, open := p.Park(e0); !open {
						return
					}
					continue
				}
				if it.Static {
					for l := int64(0); l < it.Level; l++ {
						if left := remain[l].Load(); left != 0 {
							t.Errorf("level %d static item ran with %d tiles left at level %d", it.Level, left, l)
						}
					}
				}
				remain[it.Level].Add(-1)
				push(wf.Retire(it.Level))
				if executed.Add(1) == nlv*perLevel {
					p.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := executed.Load(); got != nlv*perLevel {
		t.Fatalf("executed %d of %d tiles", got, nlv*perLevel)
	}
	if steals, local, _ := p.Counts(); steals+local != nlv*perLevel {
		t.Errorf("steals %d + local pops %d != %d tiles", steals, local, nlv*perLevel)
	}
}

// TestParkStress: producers push while workers pop, steal and park.
// Every item is popped exactly once, Close wakes every sleeper (the
// workers all return), and the pop counters add up. CI runs it with
// -race -count=20.
func TestParkStress(t *testing.T) {
	const producers, workers, perProducer = 4, 6, 2000
	const total = producers * perProducer
	p := NewPool[int](workers, FIFO)
	popped := make([]atomic.Int32, total)
	var nPopped atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				e0 := p.Epoch()
				it, _ := p.Pop(w)
				if it == nil {
					if _, open := p.Park(e0); !open {
						return
					}
					continue
				}
				popped[it.Tile].Add(1)
				if nPopped.Add(1) == total {
					p.Close()
				}
			}
		}(w)
	}
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				name := pr*perProducer + i
				// Static and dynamic items, on few shards, so workers
				// both steal and run dry.
				p.Push(&Item[int]{Shard: name % 2, Static: name%3 == 0, Tile: name})
			}
		}(pr)
	}
	wg.Wait()
	for name := range popped {
		if n := popped[name].Load(); n != 1 {
			t.Fatalf("item %d popped %d times", name, n)
		}
	}
	steals, local, peak := p.Counts()
	if steals+local != total || p.Len() != 0 {
		t.Errorf("steals %d + local pops %d != %d items (%d still queued)", steals, local, total, p.Len())
	}
	if peak < 1 || peak > total {
		t.Errorf("peak depth %d", peak)
	}
	if slept, open := p.Park(p.Epoch()); slept || open {
		t.Errorf("Park on a closed pool: slept %v open %v", slept, open)
	}
}

// TestSteadyStateAllocs: once the queues have grown, enqueue and pop
// allocate nothing, for dynamic and static items.
func TestSteadyStateAllocs(t *testing.T) {
	p := NewPool[int](2, ColumnMajor)
	dyn := item(1, 0, false, 0, 1, 2)
	st := item(2, 0, true, 0, 1, 2)
	cycle := func() {
		p.Push(dyn)
		p.Push(st)
		p.Pop(0)
		p.Pop(1) // a steal
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("steady-state enqueue+pop allocates %v times per cycle", n)
	}
}

// TestSources: the embedded set is the scheduler and nothing else.
func TestSources(t *testing.T) {
	var names []string
	for _, s := range Sources() {
		names = append(names, s.Name)
		if len(s.Text) == 0 {
			t.Errorf("%s is empty", s.Name)
		}
	}
	if want := []string{"heap.go", "pool.go", "wavefront.go"}; !slices.Equal(names, want) {
		t.Errorf("embedded files %v, want %v", names, want)
	}
}
