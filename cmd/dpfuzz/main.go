// Command dpfuzz runs long differential-conformance soaks of the
// generator pipeline: it draws seeded random DP specs (see
// dpgen/internal/dpfuzz) and pushes each through the four oracle
// layers — FM loop bounds vs. brute enumeration, Ehrhart counts vs.
// exhaustive counting, pack/unpack index sets vs. the dependence
// definition, and bit-identical end-to-end engine runs (serial,
// threaded, fast path off, two-rank TCP).
//
// Failures are shrunk with the built-in minimizer and printed as
// compilable Go literals ready to be pinned in
// internal/dpfuzz/regress_test.go.
//
// Usage:
//
//	dpfuzz                         # 1000 seeds starting at 0
//	dpfuzz -start 5000 -count 200  # a specific seed range
//	dpfuzz -duration 30m           # as many seeds as fit in 30 minutes
//	dpfuzz -workers 4              # parallel soak
//	dpfuzz -killrecover            # add the crash-recovery differential per seed
//	dpfuzz -elastic                # add the elastic-membership differential per seed
//	dpfuzz -class range            # restrict to one template class (const, vardist, range)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dpgen/internal/dpfuzz"
)

// progressEvery is the interval between progress lines.
const progressEvery = 10 * time.Second

func main() {
	start := flag.Uint64("start", 0, "first seed")
	count := flag.Uint64("count", 1000, "number of seeds (0 = unbounded, stop on -duration)")
	duration := flag.Duration("duration", 0, "stop after this long (0 = run the full count)")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel workers")
	failFast := flag.Bool("failfast", false, "stop at the first failure")
	killRecover := flag.Bool("killrecover", false, "also run the crash-recovery differential per seed (rank kill + resume/rejoin)")
	elastic := flag.Bool("elastic", false, "also run the elastic-membership differential per seed (2 -> 3 -> 2 ranks mid-run)")
	className := flag.String("class", "any", "restrict generation to one template class: const, vardist, range (any = natural mix)")
	flag.Parse()

	class, err := dpfuzz.ParseClass(*className)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpfuzz: %v\n", err)
		os.Exit(2)
	}

	if *count == 0 && *duration == 0 {
		fmt.Fprintln(os.Stderr, "dpfuzz: -count 0 requires -duration")
		os.Exit(2)
	}

	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}

	var (
		next     atomic.Uint64
		done     atomic.Uint64
		ehrharts atomic.Uint64
		failures atomic.Uint64
		stop     atomic.Bool
		outMu    sync.Mutex
	)
	next.Store(*start)
	began := time.Now()

	report := func() {
		fmt.Fprintf(os.Stderr, "dpfuzz: %d seeds in %v (%.1f/s), ehrhart layer ran %d, failures %d\n",
			done.Load(), time.Since(began).Round(time.Second),
			float64(done.Load())/time.Since(began).Seconds(),
			ehrharts.Load(), failures.Load())
	}

	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				seed := next.Add(1) - 1
				if *count > 0 && seed >= *start+*count {
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				in := dpfuzz.GenerateClass(seed, class)
				checked, err := dpfuzz.CheckAll(in)
				if checked {
					ehrharts.Add(1)
				}
				if err == nil && *killRecover {
					err = dpfuzz.CheckKillRecover(in)
				}
				if err == nil && *elastic {
					err = dpfuzz.CheckElastic(in)
				}
				done.Add(1)
				if err == nil {
					continue
				}
				failures.Add(1)
				min := dpfuzz.Minimize(in, func(c *dpfuzz.Instance) bool {
					_, e := dpfuzz.CheckAll(c)
					return e != nil
				})
				_, merr := dpfuzz.CheckAll(min)
				outMu.Lock()
				fmt.Printf("=== FAILURE seed %d ===\n%v\nminimized: %v\nreproduce with:\n%s\n",
					seed, err, merr, dpfuzz.GoLiteral(min))
				outMu.Unlock()
				if *failFast {
					stop.Store(true)
				}
			}
		}()
	}

	tick := time.NewTicker(progressEvery)
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	for running := true; running; {
		select {
		case <-tick.C:
			report()
		case <-doneCh:
			running = false
		}
	}
	tick.Stop()
	report()
	if failures.Load() > 0 {
		os.Exit(1)
	}
}
