package dpfuzz

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"dpgen/internal/engine"
	"dpgen/internal/mpi/tcp"
)

// CheckKillRecover is the fault-tolerance leg of the differential
// oracle: a two-rank Recovery-mode TCP run in which rank 1 crashes
// (transport killed) after a fixed number of executed tiles and is
// then restarted with resume/rejoin against the checkpoints in a
// temporary directory. Both surviving ranks must produce values
// bit-identical to the independent serial reference. Instances small
// enough that rank 1 finishes before the crash point simply complete
// as a plain distributed run, which is validated the same way.
func CheckKillRecover(in *Instance) error {
	sp := in.Spec
	params := in.pvals(in.N)
	ref := serialSolve(sp, params)
	kernel := fuzzKernel(len(sp.Deps))
	tl, err := in.tiling()
	if err != nil {
		return fmt.Errorf("tiling.New: %w", err)
	}
	ckdir, err := os.MkdirTemp("", "dpfuzz-ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ckdir)

	const nranks = 2
	threads := in.Threads
	if threads < 1 {
		threads = 1
	}
	lns := make([]net.Listener, nranks)
	peers := make([]string, nranks)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:r] {
				l.Close()
			}
			return err
		}
		lns[r] = ln
		peers[r] = ln.Addr().String()
	}
	opts := func(r int) tcp.Options {
		return tcp.Options{
			Recovery: true,
			SendBufs: in.SendBufs, RecvBufs: in.RecvBufs,
			DialTimeout: 15 * time.Second,
			Listener:    lns[r],
		}
	}
	ckpt := engine.CheckpointConfig{Dir: ckdir, EveryTiles: 2}

	var wg sync.WaitGroup
	var res0 *engine.Result
	var err0 error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr, err := tcp.Dial(0, peers, opts(0))
		if err != nil {
			err0 = err
			return
		}
		res0, err0 = engine.Run(tl, kernel, params, engine.Config{
			Transport: tr, Threads: threads, Checkpoint: ckpt,
		})
	}()

	tr1, err := tcp.Dial(1, peers, opts(1))
	if err != nil {
		return fmt.Errorf("rank 1 dial: %w", err)
	}
	res1, err1 := engine.Run(tl, kernel, params, engine.Config{
		Transport: tr1, Threads: threads, Checkpoint: ckpt,
		CrashAfterTiles: 3,
		CrashFn:         tr1.Kill,
	})
	if err1 != nil {
		// The injected crash fired: restart rank 1 with resume/rejoin.
		resumed := ckpt
		resumed.Resume = true
		tr1b, err := tcp.DialRejoin(1, peers, tcp.Options{
			SendBufs: in.SendBufs, RecvBufs: in.RecvBufs,
			DialTimeout: 15 * time.Second,
		})
		if err != nil {
			// Rank 0 refusing the rejoin means its own endpoint is gone:
			// its error is the cause, this one the symptom.
			wg.Wait()
			return fmt.Errorf("rank 1 rejoin: %w (rank 0: %v)", err, err0)
		}
		res1, err1 = engine.Run(tl, kernel, params, engine.Config{
			Transport: tr1b, Threads: threads, Checkpoint: resumed,
		})
		if err1 != nil {
			return fmt.Errorf("rank 1 resumed run: %w", err1)
		}
	}
	wg.Wait()
	if err0 != nil {
		return fmt.Errorf("rank 0: %w", err0)
	}
	for r, res := range []*engine.Result{res0, res1} {
		if res.Value != ref.goal || res.Max != ref.max {
			return fmt.Errorf("kill-recover rank %d: value %.17g max %.17g, serial reference %.17g / %.17g",
				r, res.Value, res.Max, ref.goal, ref.max)
		}
	}
	return nil
}
