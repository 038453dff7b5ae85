// Transport conformance suite: one table of scenarios exercised
// against every Transport implementation — the in-process channel
// transport (*mpi.Rank) and the multi-process TCP transport
// (tcp.Transport, here with each rank as a goroutine over real
// localhost sockets). A new transport passes by adding a mesh
// constructor to transportImpls.
package mpi_test

import (
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"dpgen/internal/engine"
	"dpgen/internal/mpi"
	"dpgen/internal/mpi/tcp"
	"dpgen/internal/problems"
	"dpgen/internal/tiling"
)

// mesh builds one fully connected set of transports; the cleanup of
// each endpoint is registered with t.
type meshFunc func(t *testing.T, size, sendBufs, recvBufs int) []mpi.Transport

func inmemMesh(t *testing.T, size, sendBufs, recvBufs int) []mpi.Transport {
	t.Helper()
	c, err := mpi.NewComm(size, sendBufs, recvBufs)
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]mpi.Transport, size)
	for r := 0; r < size; r++ {
		ts[r] = c.Rank(r)
	}
	return ts
}

func tcpMesh(t *testing.T, size, sendBufs, recvBufs int) []mpi.Transport {
	return tcpMeshChaos(t, size, sendBufs, recvBufs, nil)
}

// chaosDelayFn builds a seeded random per-message delivery delay for
// one rank: roughly a third of messages are delivered immediately, the
// rest held up to 2ms, enough to reorder deliveries (including from a
// single peer) on loopback.
func chaosDelayFn(seed int64) func(src, tag int) time.Duration {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func(src, tag int) time.Duration {
		mu.Lock()
		defer mu.Unlock()
		if rng.Intn(3) == 0 {
			return 0
		}
		return time.Duration(rng.Intn(2000)) * time.Microsecond
	}
}

// tcpMeshChaos is tcpMesh with an optional per-rank ChaosDelay
// constructor (nil for a quiet mesh).
func tcpMeshChaos(t *testing.T, size, sendBufs, recvBufs int, chaos func(rank int) func(src, tag int) time.Duration) []mpi.Transport {
	t.Helper()
	lns := make([]net.Listener, size)
	peers := make([]string, size)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		peers[r] = ln.Addr().String()
	}
	ts := make([]mpi.Transport, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := tcp.Options{
				SendBufs:    sendBufs,
				RecvBufs:    recvBufs,
				DialTimeout: 10 * time.Second,
				Listener:    lns[r],
			}
			if chaos != nil {
				o.ChaosDelay = chaos(r)
			}
			ts[r], errs[r] = tcp.Dial(r, peers, o)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", r, err)
		}
	}
	t.Cleanup(func() {
		var cwg sync.WaitGroup
		for _, tr := range ts {
			if tr == nil {
				continue
			}
			cwg.Add(1)
			go func(tr mpi.Transport) { defer cwg.Done(); tr.Close() }(tr)
		}
		cwg.Wait()
	})
	return ts
}

var transportImpls = []struct {
	name string
	mesh meshFunc
}{
	{"inmem", inmemMesh},
	{"tcp", tcpMesh},
	// The TCP mesh again, under seeded random delivery delays: every
	// scenario must also hold when data messages arrive out of order.
	{"tcp-chaos", func(t *testing.T, size, sendBufs, recvBufs int) []mpi.Transport {
		return tcpMeshChaos(t, size, sendBufs, recvBufs, func(rank int) func(src, tag int) time.Duration {
			return chaosDelayFn(int64(rank + 1))
		})
	}},
}

func forEachTransport(t *testing.T, f func(t *testing.T, mesh meshFunc)) {
	for _, impl := range transportImpls {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			t.Parallel()
			f(t, impl.mesh)
		})
	}
}

func TestConformancePingPong(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mesh meshFunc) {
		ts := mesh(t, 2, 2, 2)
		done := make(chan struct{})
		go func() {
			defer close(done)
			m, ok := ts[1].Recv()
			if !ok {
				t.Error("recv failed")
				return
			}
			if m.Src != 0 || m.Tag != 7 || len(m.Data) != 3 || m.Data[1] != 2.5 ||
				len(m.Meta) != 2 || m.Meta[0] != 42 || m.Meta[1] != -9 {
				t.Errorf("message corrupted: %+v", m)
			}
			m.Release()
			ts[1].Send(0, 8, []float64{9}, nil)
		}()
		ts[0].Send(1, 7, []float64{1, 2.5, 3}, []int64{42, -9})
		m, ok := ts[0].Recv()
		if !ok || m.Src != 1 || m.Tag != 8 || m.Data[0] != 9 {
			t.Errorf("reply wrong: %+v ok=%v", m, ok)
		}
		m.Release()
		<-done
	})
}

func TestConformanceAccessors(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mesh meshFunc) {
		ts := mesh(t, 3, 1, 1)
		for r, tr := range ts {
			if tr.ID() != r || tr.Size() != 3 {
				t.Errorf("rank %d: ID=%d Size=%d", r, tr.ID(), tr.Size())
			}
			if err := tr.Err(); err != nil {
				t.Errorf("rank %d: fresh transport Err = %v", r, err)
			}
		}
	})
}

// TestConformanceSendBufferBackpressure: with one send-buffer slot, a
// second send must block until the receiver releases the first
// message, and the stall must be reported.
func TestConformanceSendBufferBackpressure(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mesh meshFunc) {
		ts := mesh(t, 2, 1, 8)
		if stall := ts[0].Send(1, 1, []float64{1}, nil); stall != 0 {
			t.Errorf("uncontended send stalled %v", stall)
		}
		sent2 := make(chan time.Duration, 1)
		go func() {
			sent2 <- ts[0].Send(1, 2, []float64{2}, nil)
		}()
		select {
		case <-sent2:
			t.Fatal("second send did not block with 1 send buffer")
		case <-time.After(50 * time.Millisecond):
		}
		m, ok := ts[1].Recv()
		if !ok {
			t.Fatal("recv failed")
		}
		m.Release()
		select {
		case stall := <-sent2:
			if stall < 25*time.Millisecond {
				t.Errorf("blocked send reported stall %v", stall)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("second send still blocked after release")
		}
		m2, _ := ts[1].Recv()
		m2.Release()
	})
}

// TestConformanceReleaseIdempotent: double Release must free the
// send-buffer slot exactly once.
func TestConformanceReleaseIdempotent(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mesh meshFunc) {
		ts := mesh(t, 2, 1, 2)
		for round := 0; round < 3; round++ {
			ts[0].Send(1, round, []float64{1}, nil)
			m, ok := ts[1].Recv()
			if !ok {
				t.Fatal("recv failed")
			}
			m.Release()
			m.Release()
			m.ReleaseSlot()
		}
	})
}

// TestConformanceBufferRecycling: a receiver that keeps the payload
// alive uses ReleaseSlot and recycles via the pools itself — the
// engine's receive path.
func TestConformanceBufferRecycling(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mesh meshFunc) {
		ts := mesh(t, 2, 2, 2)
		data := mpi.GetData(4)
		meta := mpi.GetMeta(2)
		for i := range data {
			data[i] = float64(i)
		}
		meta[0], meta[1] = 3, 4
		ts[0].Send(1, 1, data, meta)
		m, ok := ts[1].Recv()
		if !ok {
			t.Fatal("recv failed")
		}
		if len(m.Data) != 4 || m.Data[3] != 3 || len(m.Meta) != 2 || m.Meta[1] != 4 {
			t.Errorf("payload corrupted: %+v", m)
		}
		d := m.Data
		m.ReleaseSlot() // keep payload alive past the slot release
		if d[3] != 3 {
			t.Error("payload mutated by ReleaseSlot")
		}
		mpi.PutData(d)
		mpi.PutMeta(m.Meta)
	})
}

func TestConformanceAllReduce(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mesh meshFunc) {
		const n = 5
		ts := mesh(t, n, 1, 1)
		sum := func(a, b float64) float64 { return a + b }
		max := func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		}
		var wg sync.WaitGroup
		sums := make([]float64, n)
		maxes := make([]float64, n)
		vals := []float64{2, 9, 4, -1, 7}
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				var err error
				if sums[r], err = ts[r].AllReduce(float64(r+1), sum); err != nil {
					t.Errorf("rank %d allreduce sum: %v", r, err)
				}
				if maxes[r], err = ts[r].AllReduce(vals[r], max); err != nil {
					t.Errorf("rank %d allreduce max: %v", r, err)
				}
			}(r)
		}
		wg.Wait()
		for r := 0; r < n; r++ {
			if sums[r] != 15 {
				t.Errorf("rank %d sum = %v, want 15", r, sums[r])
			}
			if maxes[r] != 9 {
				t.Errorf("rank %d max = %v, want 9", r, maxes[r])
			}
		}
	})
}

// TestConformanceStats: Stats counts what this endpoint sent, so the
// mesh-wide sum matches the total traffic on both transports.
func TestConformanceStats(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mesh meshFunc) {
		ts := mesh(t, 3, 2, 4)
		ts[0].Send(1, 1, []float64{1, 2}, nil)
		ts[0].Send(2, 2, []float64{3}, nil)
		ts[1].Send(2, 3, []float64{4, 5, 6}, nil)
		for _, rcv := range []struct{ rank, n int }{{1, 1}, {2, 2}} {
			for i := 0; i < rcv.n; i++ {
				m, ok := ts[rcv.rank].Recv()
				if !ok {
					t.Fatal("recv failed")
				}
				m.Release()
			}
		}
		var msgs, elems int64
		for _, tr := range ts {
			m, e := tr.Stats()
			msgs += m
			elems += e
		}
		if msgs != 3 || elems != 6 {
			t.Errorf("mesh stats = %d msgs %d elems, want 3/6", msgs, elems)
		}
		m0, e0 := ts[0].Stats()
		if m0 != 2 || e0 != 3 {
			t.Errorf("rank 0 stats = %d msgs %d elems, want 2/3", m0, e0)
		}
	})
}

// TestConformanceManyToOneStress floods receivers through tight buffer
// limits: several senders into one rank, and two ranks with one send
// and one receive buffer each flooding each other at once — the shape
// the paper's ranks poll for, which here must complete because each
// rank's receiver drains its inbox while its sender is blocked in Send.
func TestConformanceManyToOneStress(t *testing.T) {
	const msgs = 100
	for _, sh := range []struct {
		name               string
		size               int
		sendBufs, recvBufs int
		dsts               func(r int) []int // whom rank r floods
	}{
		{"many-to-one", 5, 2, 4, func(r int) []int {
			if r == 0 {
				return nil
			}
			return []int{0}
		}},
		{"all-at-once", 2, 1, 1, func(r int) []int { return []int{1 - r} }},
	} {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			forEachTransport(t, func(t *testing.T, mesh meshFunc) {
				ts := mesh(t, sh.size, sh.sendBufs, sh.recvBufs)
				want := make([]map[int]int, sh.size) // per receiver: messages expected per source
				var wg sync.WaitGroup
				for r := range ts {
					for _, dst := range sh.dsts(r) {
						if want[dst] == nil {
							want[dst] = map[int]int{}
						}
						want[dst][r] = msgs
					}
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						for i := 0; i < msgs; i++ {
							for _, dst := range sh.dsts(r) {
								ts[r].Send(dst, i, []float64{float64(r)}, []int64{int64(i)})
							}
						}
					}(r)
				}
				for r, from := range want {
					wg.Add(1)
					go func(r int, from map[int]int) {
						defer wg.Done()
						seen := make(map[int]int)
						for got := 0; got < msgs*len(from); got++ {
							m, ok := ts[r].Recv()
							if !ok {
								t.Error("transport closed early")
								return
							}
							if int(m.Data[0]) != m.Src || int(m.Meta[0]) != m.Tag {
								t.Errorf("corrupted message: %+v", m)
								return
							}
							seen[m.Src]++
							m.Release()
						}
						for src, n := range from {
							if seen[src] != n {
								t.Errorf("rank %d got %d msgs from rank %d, want %d", r, seen[src], src, n)
							}
						}
					}(r, from)
				}
				wg.Wait()
			})
		})
	}
}

// TestConformanceCloseEndsRecv: after a collective shutdown, a blocked
// Recv must return ok=false instead of hanging.
func TestConformanceCloseEndsRecv(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mesh meshFunc) {
		ts := mesh(t, 2, 1, 2)
		done := make(chan bool, 1)
		go func() {
			_, ok := ts[1].Recv()
			done <- ok
		}()
		time.Sleep(10 * time.Millisecond)
		var wg sync.WaitGroup
		for _, tr := range ts {
			wg.Add(1)
			go func(tr mpi.Transport) {
				defer wg.Done()
				if err := tr.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}(tr)
		}
		select {
		case ok := <-done:
			if ok {
				t.Error("Recv on closed transport returned ok")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Recv did not return after Close")
		}
		wg.Wait()
	})
}

// TestTCPPeerDeath is the fault-injection test: rank 1 dies abruptly
// (no BYE) mid-run. Rank 0 must observe a clean failure — Recv
// returns ok=false, Err reports the death, and a blocked AllReduce
// returns an error — rather than hanging.
func TestTCPPeerDeath(t *testing.T) {
	ts := tcpMesh(t, 2, 2, 2)
	t0 := ts[0].(*tcp.Transport)
	t1 := ts[1].(*tcp.Transport)

	// Healthy traffic first, so the mesh is known-good.
	t1.Send(0, 1, []float64{1}, nil)
	m, ok := t0.Recv()
	if !ok {
		t.Fatal("healthy recv failed")
	}
	m.Release()

	sum := func(a, b float64) float64 { return a + b }
	reduceErr := make(chan error, 1)
	go func() {
		_, err := t0.AllReduce(1, sum) // blocks: rank 1 will never arrive
		reduceErr <- err
	}()

	time.Sleep(20 * time.Millisecond)
	t1.Kill()

	select {
	case err := <-reduceErr:
		if err == nil {
			t.Error("AllReduce blocked across peer death returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AllReduce hung after peer death")
	}
	if err := t0.Err(); err == nil {
		t.Error("Err after peer death is nil")
	}
	recvDone := make(chan bool, 1)
	go func() {
		_, ok := t0.Recv()
		recvDone <- ok
	}()
	select {
	case ok := <-recvDone:
		if ok {
			t.Error("Recv after peer death returned ok")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv hung after peer death")
	}
	if _, err := t0.AllReduce(1, sum); err == nil {
		t.Error("AllReduce after peer death returned nil error")
	}
}

// TestTCPKillRecover is the Recovery-mode counterpart of
// TestTCPPeerDeath: rank 2 of a three-rank mesh dies abruptly mid-run,
// the survivors keep sending (parked, never blocking), and a restarted
// rank 2 rejoins the mesh. Every message — sent before or during the
// outage — must arrive at least once through the retained-history
// replay, and the collectives must work across the recovered mesh.
func TestTCPKillRecover(t *testing.T) {
	const size = 3
	lns := make([]net.Listener, size)
	peers := make([]string, size)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		peers[r] = ln.Addr().String()
	}
	ts := make([]*tcp.Transport, size)
	errs := make([]error, size)
	var dwg sync.WaitGroup
	for r := 0; r < size; r++ {
		dwg.Add(1)
		go func(r int) {
			defer dwg.Done()
			ts[r], errs[r] = tcp.Dial(r, peers, tcp.Options{
				Recovery:    true,
				SendBufs:    16,
				RecvBufs:    32,
				DialTimeout: 10 * time.Second,
				Listener:    lns[r],
			})
		}(r)
	}
	dwg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", r, err)
		}
	}

	// Healthy traffic from both survivors into rank 2.
	for tag := 0; tag < 4; tag++ {
		ts[0].Send(2, tag, []float64{float64(tag)}, nil)
		ts[1].Send(2, 10+tag, []float64{float64(10 + tag)}, nil)
	}
	for i := 0; i < 4; i++ {
		m, ok := ts[2].Recv()
		if !ok {
			t.Fatal("healthy recv failed")
		}
		m.Release()
	}

	ts[2].Kill()
	time.Sleep(20 * time.Millisecond) // let the survivors' readers observe the death

	// Sends to the dead rank park instead of blocking.
	parkDone := make(chan struct{})
	go func() {
		defer close(parkDone)
		for tag := 4; tag < 8; tag++ {
			ts[0].Send(2, tag, []float64{float64(tag)}, nil)
			ts[1].Send(2, 10+tag, []float64{float64(10 + tag)}, nil)
		}
	}()
	select {
	case <-parkDone:
	case <-time.After(10 * time.Second):
		t.Fatal("sends to a dead peer blocked")
	}

	t2b, err := tcp.DialRejoin(2, peers, tcp.Options{SendBufs: 16, RecvBufs: 32, DialTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}

	// Replay is at-least-once: pre-death messages come again. Count
	// distinct (src, tag) pairs until all 16 have been seen.
	type key struct{ src, tag int }
	seen := make(map[key]bool)
	for len(seen) < 16 {
		m, ok := t2b.Recv()
		if !ok {
			t.Fatalf("recv after rejoin failed with %d/16 pairs seen", len(seen))
		}
		if m.Data[0] != float64(m.Tag) {
			t.Fatalf("corrupted replayed message: %+v", m)
		}
		seen[key{m.Src, m.Tag}] = true
		m.Release()
	}
	for r := 0; r < 2; r++ {
		if _, restarts := ts[r].RecoveryStats(); restarts != 1 {
			t.Errorf("rank %d peer restarts = %d, want 1", r, restarts)
		}
	}

	// The recovered mesh must still agree on collectives.
	alive := []*tcp.Transport{ts[0], ts[1], t2b}
	sums := make([]float64, size)
	var cwg sync.WaitGroup
	for r, tr := range alive {
		cwg.Add(1)
		go func(r int, tr *tcp.Transport) {
			defer cwg.Done()
			var err error
			if sums[r], err = tr.AllReduce(float64(r+1), func(a, b float64) float64 { return a + b }); err != nil {
				t.Errorf("rank %d allreduce after recovery: %v", r, err)
			}
		}(r, tr)
	}
	cwg.Wait()
	for r, s := range sums {
		if s != 6 {
			t.Errorf("rank %d post-recovery allreduce = %v, want 6", r, s)
		}
	}

	var wg sync.WaitGroup
	for _, tr := range alive {
		wg.Add(1)
		go func(tr *tcp.Transport) { defer wg.Done(); tr.Close() }(tr)
	}
	wg.Wait()
}

// TestTCPChaosKillRecover drives the full engine through the worst
// transport weather the suite can brew: a three-rank recovery mesh
// whose every delivery is randomly delayed (reordered) by ChaosDelay,
// in which rank 2 crashes mid-run and a restarted incarnation rejoins
// and resumes from its checkpoint. The finished job must still be
// bit-identical to the serial reference on every rank, and no
// goroutine — crashed incarnation included — may outlive the run.
func TestTCPChaosKillRecover(t *testing.T) {
	before := runtime.NumGoroutine()
	p, err := problems.Get("lcs2")
	if err != nil {
		t.Fatal(err)
	}
	params := p.DefaultParams
	serial := p.Serial(params)

	const size, threads = 3, 2
	ckdir := t.TempDir()
	lns := make([]net.Listener, size)
	peers := make([]string, size)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		peers[r] = ln.Addr().String()
	}
	opts := func(r int) tcp.Options {
		return tcp.Options{
			Recovery:    true,
			DialTimeout: 15 * time.Second,
			Listener:    lns[r],
			ChaosDelay:  chaosDelayFn(int64(r + 1)),
		}
	}

	type outcome struct {
		res *engine.Result
		err error
	}
	run := func(r int, tr mpi.Transport, crash func(), crashAfter int64, resume bool) outcome {
		tl, err := tiling.New(p.Spec)
		if err != nil {
			return outcome{nil, err}
		}
		res, err := engine.Run(tl, p.Kernel, params, engine.Config{
			Transport:       tr,
			Threads:         threads,
			Checkpoint:      engine.CheckpointConfig{Dir: ckdir, EveryTiles: 4, Resume: resume},
			CrashAfterTiles: crashAfter,
			CrashFn:         crash,
		})
		return outcome{res, err}
	}

	survivors := make([]chan outcome, 2)
	for r := 0; r < 2; r++ {
		r := r
		survivors[r] = make(chan outcome, 1)
		go func() {
			tr, err := tcp.Dial(r, peers, opts(r))
			if err != nil {
				survivors[r] <- outcome{nil, err}
				return
			}
			survivors[r] <- run(r, tr, nil, 0, false)
		}()
	}

	// Rank 2, first incarnation: its transport dies after 6 tiles.
	crashed := make(chan outcome, 1)
	go func() {
		tr, err := tcp.Dial(2, peers, opts(2))
		if err != nil {
			crashed <- outcome{nil, err}
			return
		}
		crashed <- run(2, tr, tr.Kill, 6, false)
	}()
	select {
	case oc := <-crashed:
		if oc.err == nil {
			t.Fatalf("crashed incarnation returned nil error (result %+v)", oc.res)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("crashed incarnation never returned")
	}

	// Second incarnation: rejoin through the same chaos and resume.
	tr2b, err := tcp.DialRejoin(2, peers, tcp.Options{
		DialTimeout: 15 * time.Second,
		ChaosDelay:  chaosDelayFn(99),
	})
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	oc2 := run(2, tr2b, nil, 0, true)
	if oc2.err != nil {
		t.Fatalf("resumed incarnation: %v", oc2.err)
	}

	results := map[int]*engine.Result{2: oc2.res}
	for r := 0; r < 2; r++ {
		select {
		case oc := <-survivors[r]:
			if oc.err != nil {
				t.Fatalf("rank %d: %v", r, oc.err)
			}
			results[r] = oc.res
		case <-time.After(60 * time.Second):
			t.Fatalf("rank %d never finished", r)
		}
	}
	for r := 0; r < size; r++ {
		got := results[r].Value
		if p.UseMax {
			got = results[r].Max
		}
		if got != serial {
			t.Errorf("rank %d: chaotic recovered run %.17g != serial reference %.17g", r, got, serial)
		}
	}

	// Transports are closed by engine.Run; the process must return to
	// its pre-test goroutine count (give the runtime time to reap).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
