package dpgen

import (
	"math"
	"runtime"
	"testing"
	"time"

	"dpgen/internal/engine"
	"dpgen/internal/mpi/tcp"
	"dpgen/internal/problems"
	"dpgen/internal/tiling"
)

// TestRecoveryBitIdentical is the end-to-end fault-tolerance check:
// a two-rank distributed run in which rank 1 crashes mid-execution
// (its transport killed after a fixed tile count), is restarted with
// -resume/-rejoin semantics, and the completed run must still produce
// the exact serial-reference value on both surviving ranks. Message
// counts are NOT compared — recovery legitimately redelivers
// duplicates, which the engine deduplicates. The test also asserts
// that no goroutine outlives the run, crashed incarnation included.
func TestRecoveryBitIdentical(t *testing.T) {
	for _, name := range []string{"bandit2", "lcs2"} {
		name := name
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			p, err := problems.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			params := p.DefaultParams
			serial := p.Serial(params)

			const nranks, threads = 2, 2
			reftl, err := tiling.New(p.Spec)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := engine.Run(reftl, p.Kernel, params, engine.Config{Nodes: nranks, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}

			ckdir := t.TempDir()
			lns, peers, err := tcp.Loopback(nranks)
			if err != nil {
				t.Fatal(err)
			}
			opts := func(r int) tcp.Options {
				return tcp.Options{
					Recovery:    true,
					DialTimeout: 15 * time.Second,
					Listener:    lns[r],
				}
			}

			// Rank 0 runs uninterrupted for the whole job; while rank 1
			// is down its outbound edges park and redeliver on rejoin.
			type outcome struct {
				res *engine.Result
				err error
			}
			rank0 := make(chan outcome, 1)
			go func() {
				tl, err := tiling.New(p.Spec)
				if err != nil {
					rank0 <- outcome{nil, err}
					return
				}
				tr, err := tcp.Dial(0, peers, opts(0))
				if err != nil {
					rank0 <- outcome{nil, err}
					return
				}
				res, err := engine.Run(tl, p.Kernel, params, engine.Config{
					Transport:  tr,
					Threads:    threads,
					Checkpoint: engine.CheckpointConfig{Dir: ckdir, EveryTiles: 4},
				})
				rank0 <- outcome{res, err}
			}()

			// Rank 1, first incarnation: crash (transport kill) after 10
			// executed tiles. Run must return an error, not hang.
			rank1 := make(chan outcome, 1)
			go func() {
				tl, err := tiling.New(p.Spec)
				if err != nil {
					rank1 <- outcome{nil, err}
					return
				}
				tr, err := tcp.Dial(1, peers, opts(1))
				if err != nil {
					rank1 <- outcome{nil, err}
					return
				}
				res, err := engine.Run(tl, p.Kernel, params, engine.Config{
					Transport:       tr,
					Threads:         threads,
					Checkpoint:      engine.CheckpointConfig{Dir: ckdir, EveryTiles: 4},
					CrashAfterTiles: 10,
					CrashFn:         tr.Kill,
				})
				rank1 <- outcome{res, err}
			}()
			select {
			case oc := <-rank1:
				if oc.err == nil {
					t.Fatalf("crashed incarnation returned nil error (result %+v)", oc.res)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("crashed incarnation never returned")
			}

			// Rank 1, second incarnation: rejoin the mesh and resume
			// from whatever checkpoint the crash left behind (possibly
			// none — resume-from-scratch is equally correct).
			tl1b, err := tiling.New(p.Spec)
			if err != nil {
				t.Fatal(err)
			}
			tr1b, err := tcp.DialRejoin(1, peers, tcp.Options{DialTimeout: 15 * time.Second})
			if err != nil {
				t.Fatalf("rejoin: %v", err)
			}
			res1b, err := engine.Run(tl1b, p.Kernel, params, engine.Config{
				Transport:  tr1b,
				Threads:    threads,
				Checkpoint: engine.CheckpointConfig{Dir: ckdir, EveryTiles: 4, Resume: true},
			})
			if err != nil {
				t.Fatalf("resumed incarnation: %v", err)
			}

			var res0 *engine.Result
			select {
			case oc := <-rank0:
				if oc.err != nil {
					t.Fatalf("rank 0: %v", oc.err)
				}
				res0 = oc.res
			case <-time.After(60 * time.Second):
				t.Fatal("rank 0 never finished")
			}

			for _, sr := range []struct {
				rank int
				res  *engine.Result
			}{{0, res0}, {1, res1b}} {
				if sr.res.Value != ref.Value {
					t.Errorf("rank %d: Value %.17g != in-mem reference %.17g", sr.rank, sr.res.Value, ref.Value)
				}
				if sr.res.Max != ref.Max && !(math.IsNaN(sr.res.Max) && math.IsNaN(ref.Max)) {
					t.Errorf("rank %d: Max %.17g != in-mem reference %.17g", sr.rank, sr.res.Max, ref.Max)
				}
				got := sr.res.Value
				if p.UseMax {
					got = sr.res.Max
				}
				if got != serial {
					t.Errorf("rank %d: recovered run %.17g != serial reference %.17g", sr.rank, got, serial)
				}
			}
			if _, restarts := countRecovery(res0); restarts != 1 {
				t.Errorf("rank 0 observed %d peer restarts, want 1", restarts)
			}

			// Everything is closed; the process must be back to its
			// pre-test goroutine count (give the runtime time to reap).
			deadline := time.Now().Add(10 * time.Second)
			for {
				if n := runtime.NumGoroutine(); n <= before {
					return
				} else if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before, %d after", before, n)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// countRecovery pulls the recovery counters the engine folded into the
// local rank's stats entry.
func countRecovery(res *engine.Result) (hbMisses, restarts int64) {
	for _, st := range res.Stats {
		hbMisses += st.HeartbeatMisses
		restarts += st.PeerRestarts
	}
	return hbMisses, restarts
}
