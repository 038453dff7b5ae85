package dpfuzz

import (
	"fmt"
	"net"
	"sync"
	"time"

	"dpgen/internal/engine"
	"dpgen/internal/mpi/tcp"
)

// CheckElastic is the elastic-membership leg of the differential
// oracle: a three-rank TCP mesh that starts with members {0, 1}, grows
// to {0, 1, 2} when rank 2's join is admitted, and shrinks again when
// rank 1's voluntary leave is granted (2 -> 3 -> 2). The thresholds
// are tiny so both view changes land mid-run on all but the smallest
// instances; instances that finish before a threshold degrade into a
// plain distributed run plus trailing no-op view changes, which must
// be equally bit-identical. Every rank's result is compared against
// the independent serial reference.
func CheckElastic(in *Instance) error {
	sp := in.Spec
	params := in.pvals(in.N)
	ref := serialSolve(sp, params)
	kernel := fuzzKernel(len(sp.Deps))
	tl, err := in.tiling()
	if err != nil {
		return fmt.Errorf("tiling.New: %w", err)
	}

	const world = 3
	threads := in.Threads
	if threads < 1 {
		threads = 1
	}
	lns := make([]net.Listener, world)
	peers := make([]string, world)
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
	elastic := func(r int) engine.ElasticConfig {
		ec := engine.ElasticConfig{Enabled: true, Members: []int{0, 1}}
		switch r {
		case 0:
			ec.ScaleAt = []engine.ScaleEvent{{AfterTiles: 2, Delta: +1}}
			ec.ExpectLeaves = 1
		case 1:
			ec.LeaveAfterTiles = 2
		case 2:
			ec.JoinRequest = true
		}
		return ec
	}

	results := make([]*engine.Result, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := tcp.Dial(r, peers, tcp.Options{
				SendBufs: in.SendBufs, RecvBufs: in.RecvBufs,
				DialTimeout: 15 * time.Second,
				Listener:    lns[r],
			})
			if err != nil {
				errs[r] = fmt.Errorf("dial: %w", err)
				return
			}
			defer tr.Close()
			results[r], errs[r] = engine.Run(tl, kernel, params, engine.Config{
				Transport: tr, Threads: threads,
				Elastic: elastic(r),
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("elastic rank %d: %w", r, err)
		}
	}
	for r, res := range results {
		if res.Value != ref.goal || res.Max != ref.max {
			return fmt.Errorf("elastic rank %d: value %.17g max %.17g, serial reference %.17g / %.17g",
				r, res.Value, res.Max, ref.goal, ref.max)
		}
	}
	return nil
}
