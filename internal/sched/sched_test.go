package sched

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// item builds a test item whose payload is its own name.
func item(name int, level int64, key ...int64) *Item[int] {
	return &Item[int]{Key: key, Level: level, Tile: name}
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
			p.Push(item(s.name, s.level, s.key...), 0)
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

// TestPushPlacement: at 2–4 workers, a worker's push stays on its own
// shard — its owner pops it unstolen, and any other worker steals it
// when that shard is the only non-empty one — and a non-worker's push
// (w < 0) hashes the key, deterministically, over every shard.
func TestPushPlacement(t *testing.T) {
	for workers := 2; workers <= 4; workers++ {
		p := NewPool[int](workers, ColumnMajor)
		for w := 0; w < workers; w++ {
			it := item(w, 0, int64(w))
			p.Push(it, w)
			if got, stolen := p.Pop(w); got != it || stolen {
				t.Fatalf("%d workers: worker %d popped %v (stolen %v) after its own push", workers, w, got, stolen)
			}
			for thief := 0; thief < workers; thief++ {
				if thief == w {
					continue
				}
				p.Push(it, w)
				if got, stolen := p.Pop(thief); got != it || !stolen {
					t.Fatalf("%d workers: worker %d took %v (stolen %v) from worker %d's shard", workers, thief, got, stolen, w)
				}
			}
		}
		// A hashed item's shard is the one worker that pops it
		// unstolen; the others steal it, so it is pushed anew for each.
		shardOf := func(key []int64) int {
			for w := 0; w < workers; w++ {
				p.Push(item(0, 0, key...), -1)
				if got, stolen := p.Pop(w); got == nil {
					t.Fatalf("%d workers: hashed item %v was not poppable", workers, key)
				} else if !stolen {
					return w
				}
			}
			t.Fatalf("%d workers: hashed item %v was stolen by every worker", workers, key)
			return -1
		}
		seen := map[int]bool{}
		for i := int64(0); i < 8; i++ {
			for j := int64(-4); j < 4; j++ {
				key := []int64{i, j}
				s := shardOf(key)
				if s != shardOf(key) {
					t.Fatalf("%d workers: key %v hashed to two shards", workers, key)
				}
				seen[s] = true
			}
		}
		if len(seen) != workers {
			t.Errorf("%d workers: 64 distinct keys landed on shards %v", workers, seen)
		}
	}
	one := NewPool[int](1, ColumnMajor)
	one.Push(item(7, 0, 7, 7), -1)
	if got, stolen := one.Pop(0); got == nil || stolen {
		t.Error("single-shard pool hashed away from shard 0")
	}
}

// TestRemoveIf: dropped items leave every shard, the rest keep their
// order, and the queued count follows.
func TestRemoveIf(t *testing.T) {
	p := NewPool[int](2, ColumnMajor)
	for name := 11; name <= 16; name++ {
		p.Push(item(name, 0, int64(name)), 1)
	}
	if it, stolen := p.Pop(0); it.Tile != 11 || !stolen {
		t.Fatalf("stole %d, want shard 1's best item, 11", it.Tile)
	}
	for name := 1; name <= 6; name++ {
		p.Push(item(name, 0, int64(name)), 0)
	}
	n := p.RemoveIf(func(it *Item[int]) bool { return it.Tile%2 == 0 })
	if n != 6 || p.Len() != 5 {
		t.Fatalf("removed %d, %d left; want 6 and 5", n, p.Len())
	}
	if got, want := drain(p, 0), []int{1, 3, 5, 13, 15}; !slices.Equal(got, want) {
		t.Errorf("after RemoveIf popped %v, want %v", got, want)
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
				// Half the items are pushed as a worker onto its own
				// shard (four of the six), half as a non-worker,
				// hashed by key, so workers both steal and run dry.
				if i%2 == 0 {
					p.Push(&Item[int]{Tile: name}, pr%workers)
				} else {
					p.Push(&Item[int]{Key: []int64{int64(name)}, Tile: name}, -1)
				}
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

// parkWithin runs park on a goroutine and returns its result, failing
// the test (after closing p to release it) past a second.
func parkWithin(t *testing.T, p *Pool[int], what string, park func() (bool, bool)) (slept, open bool) {
	t.Helper()
	done := make(chan [2]bool, 1)
	go func() {
		s, o := park()
		done <- [2]bool{s, o}
	}()
	select {
	case r := <-done:
		return r[0], r[1]
	case <-time.After(time.Second):
		p.Close()
		t.Fatalf("%s: Park still blocked after 1s", what)
		return false, false
	}
}

// TestParkWakeup walks the wake-up protocol one step at a time, on one
// goroutine where it can, each blocking step bounded at a second. A Push
// that lands between a worker's empty scan and its Park must advance the
// epoch, so that Park returns at once without sleeping: no worker is a
// sleeper yet, so no signal would wake one. A worker already parked
// must wake on Close, and its next Park reports the pool closed. The
// stress test cannot reach the first window, since every worker would
// have to sit in it when the last item is pushed.
func TestParkWakeup(t *testing.T) {
	p := NewPool[int](2, FIFO)
	within := func(what string, park func() (bool, bool)) (bool, bool) {
		t.Helper()
		return parkWithin(t, p, what, park)
	}

	e0 := p.Epoch()
	if it, _ := p.Pop(0); it != nil {
		t.Fatalf("empty pool popped item %d", it.Tile)
	}
	p.Push(item(1, 0, 7), -1)
	if p.Epoch() == e0 {
		t.Fatal("Push left the epoch where the empty scan read it")
	}
	if slept, open := within("Park after a Push it missed", func() (bool, bool) { return p.Park(e0) }); slept || !open {
		t.Fatalf("Park after a Push it missed: slept %v open %v, want false true", slept, open)
	}
	if it, _ := p.Pop(0); it == nil || it.Tile != 1 {
		t.Fatalf("rescan after the early return popped %v, want item 1", it)
	}

	// A worker parks on an empty pool; Close must reach it.
	e1 := p.Epoch()
	parked := make(chan struct{})
	slept, open := within("Park woken by Close", func() (bool, bool) {
		go func() {
			deadline := time.Now().Add(time.Second)
			for p.sleepers.Load() == 0 && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			close(parked)
			p.Close()
		}()
		return p.Park(e1)
	})
	<-parked
	if !slept || !open {
		t.Fatalf("Park woken by Close: slept %v open %v, want true true", slept, open)
	}
	if slept, open := within("Park on a closed pool", func() (bool, bool) { return p.Park(p.Epoch()) }); slept || open {
		t.Fatalf("Park on a closed pool: slept %v open %v, want false false", slept, open)
	}
}

// TestParkWokenByPush: a Push reaches the one worker parked on an
// empty pool. The test waits until the worker counts as a sleeper, then
// takes and drops the pool's lock, which Park holds until it waits, so
// the Push lands after the worker is asleep and only its signal can
// wake it. A Push that signalled only with two or more sleepers would
// leave it parked.
func TestParkWokenByPush(t *testing.T) {
	p := NewPool[int](2, FIFO)
	e0 := p.Epoch()
	slept, open := parkWithin(t, p, "Park woken by a Push", func() (bool, bool) {
		go func() {
			deadline := time.Now().Add(time.Second)
			for p.sleepers.Load() == 0 && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			p.mu.Lock()
			p.mu.Unlock()
			p.Push(item(1, 0, 7), -1)
		}()
		return p.Park(e0)
	})
	if !slept || !open {
		t.Fatalf("Park woken by a Push: slept %v open %v, want true true", slept, open)
	}
	if it, _ := p.Pop(0); it == nil || it.Tile != 1 {
		t.Fatalf("the woken worker popped %v, want item 1", it)
	}
}

// TestSteadyStateAllocs: once the queues have grown, enqueue and pop
// allocate nothing, for the owner and a thief alike.
func TestSteadyStateAllocs(t *testing.T) {
	p := NewPool[int](2, ColumnMajor)
	a := item(1, 0, 1, 2)
	b := item(2, 0, 1, 3)
	cycle := func() {
		p.Push(a, 0)
		p.Push(b, 0)
		p.Pop(0)
		p.Pop(1) // a steal
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("steady-state enqueue+pop allocates %v times per cycle", n)
	}
}

// TestSources: the embedded set is the package and nothing else.
func TestSources(t *testing.T) {
	var names []string
	for _, s := range Sources() {
		names = append(names, s.Name)
		if len(s.Text) == 0 {
			t.Errorf("%s is empty", s.Name)
		}
	}
	if want := []string{"heap.go", "key.go", "pool.go", "table.go"}; !slices.Equal(names, want) {
		t.Errorf("embedded files %v, want %v", names, want)
	}
}
