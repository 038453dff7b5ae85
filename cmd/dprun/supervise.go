// The -launch supervisor: forks one worker process per rank, streams
// and prefixes their output, restarts crashed ranks when the job is
// fault tolerant, and runs the job-wide observability plane — per-rank
// trace collection and merging, live metrics aggregation, and the
// machine-readable stats rollup (docs/OBSERVABILITY.md).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"dpgen"
	"dpgen/internal/mpi/tcp"
)

// launchConfig carries the supervisor-relevant flag values into
// launchLocal. Everything else reaches the children unchanged
// (forwardFlags).
type launchConfig struct {
	n          int    // ranks to fork
	ckptDir    string // non-empty enables recovery restarts
	traceOut   string // merged Perfetto trace output path
	statsJSON  string // merged stats JSON output path ("-" stdout)
	report     bool   // print the run-wide report after the merge
	obsAddr    string // serve the live job-wide /metrics aggregate here
	metricsOut string // write the final scraped aggregate here
	lenient    bool   // lenient merged-trace verification
	problem    string // -problem value, for the report's dependence shape
}

// wantObs reports whether the supervisor needs children to open live
// observability endpoints for it to scrape.
func (lc launchConfig) wantObs() bool { return lc.obsAddr != "" }

// statsBase is the path the children's -stats-json files derive from:
// the job-wide path, or a temporary one when the rollup goes to stdout.
func (lc launchConfig) statsBase() string {
	if lc.statsJSON == "-" {
		return filepath.Join(os.TempDir(), fmt.Sprintf("dprun-stats-%d.json", os.Getpid()))
	}
	return lc.statsJSON
}

// forwardFlags lists the explicitly set flags of fs that every child
// gets unchanged: all but the launch plumbing, which childArgs supplies
// per rank, and the per-process outputs, whose files would collide.
func forwardFlags(fs *flag.FlagSet) []string {
	var fwd []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "launch", "distributed", "rank", "peers", "nodes", "resume", "rejoin",
			"trace", "metrics", "cpuprofile", "memprofile",
			"report", "stats-json", "obs-addr", "metrics-out",
			"check-trace", "trace-lenient":
			return
		}
		fwd = append(fwd, "-"+f.Name+"="+f.Value.String())
	})
	return fwd
}

// childArgs is rank r's command line. Every rank gets the same
// forwarded flags and derives its role from -rank; what differs is
// -rank itself and the rank-suffixed outputs. A restart appends
// -resume -rejoin.
func (lc launchConfig) childArgs(fwd, peers []string, r int, restart bool) []string {
	args := append([]string{"-distributed", "-rank", strconv.Itoa(r), "-peers", strings.Join(peers, ",")}, fwd...)
	if lc.traceOut != "" {
		args = append(args, "-trace="+rankFile(lc.traceOut, r))
	}
	if lc.statsJSON != "" {
		args = append(args, "-stats-json="+rankFile(lc.statsBase(), r))
	}
	if lc.metricsOut != "" {
		args = append(args, "-metrics-out="+rankFile(lc.metricsOut, r))
	}
	if lc.wantObs() {
		args = append(args, "-obs-addr=127.0.0.1:0")
	}
	if restart {
		args = append(args, "-resume", "-rejoin")
	}
	return args
}

// childExit is one supervised worker process's termination report.
type childExit struct {
	rank int
	err  error    // nil on clean exit
	code int      // process exit code (-1 when unknown)
	tail []string // last output lines, for the failure diagnostic
}

// tailLines is how many trailing output lines the supervisor keeps per
// child for its failure diagnostic.
const tailLines = 12

// maxRestarts is the per-rank restart budget of a recovering job.
const maxRestarts = 3

// obsLinePrefix starts the line a child prints to announce its live
// observability endpoint; the supervisor parses the bound address out
// of it to know where to scrape.
const obsLinePrefix = "obs       http://"

// launchLocal is the local launcher and supervisor behind -launch N: it
// picks N loopback ports, re-executes this binary once per rank with
// the command line childArgs builds, and prefixes each child's output
// with its rank.
//
// When a child dies and checkpointing is on (-ckpt-dir), the supervisor
// restarts the crashed rank with -resume -rejoin — the rank reloads its
// checkpoint and the surviving peers replay their retained sends — up
// to maxRestarts times per rank. Rank 0 coordinates the result merge
// and is not restartable. On a terminal failure the remaining children
// are killed and the first failed child's exit status and output tail
// are propagated.
//
// Observability: with -trace each rank writes <file>.rank<r> and the
// supervisor merges them into one clock-aligned Perfetto file after a
// clean run; -stats-json is rolled up the same way into one JSON array;
// -obs-addr / -metrics-out make every child serve live endpoints on an
// ephemeral loopback port, which the supervisor scrapes and aggregates.
func launchLocal(lc launchConfig) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	lns, peers, err := tcp.Loopback(lc.n)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, ln := range lns {
		// Freed here and re-bound by the child; the dial retry in the
		// transport rides out the window.
		ln.Close()
	}
	fwd := forwardFlags(flag.CommandLine)

	var mu sync.Mutex // serializes output lines and the process table
	procs := make(map[int]*exec.Cmd, lc.n)
	obsAddrs := make(map[int]string, lc.n) // rank -> live endpoint address
	exits := make(chan childExit, lc.n)

	// start launches (or, on a restart, relaunches) rank r and begins
	// streaming its output.
	start := func(r int, restart bool) error {
		cmd := exec.Command(exe, lc.childArgs(fwd, peers, r, restart)...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		cmd.Stderr = cmd.Stdout // one prefixed stream per child
		if err := cmd.Start(); err != nil {
			return err
		}
		mu.Lock()
		procs[r] = cmd
		mu.Unlock()
		go func() {
			var tail []string
			sc := bufio.NewScanner(stdout)
			sc.Buffer(make([]byte, 64*1024), 1024*1024)
			for sc.Scan() {
				line := sc.Text()
				if a, ok := strings.CutPrefix(line, obsLinePrefix); ok {
					if i := strings.IndexByte(a, ' '); i > 0 {
						mu.Lock()
						obsAddrs[r] = a[:i]
						mu.Unlock()
					}
				}
				mu.Lock()
				fmt.Printf("[rank %d] %s\n", r, line)
				mu.Unlock()
				tail = append(tail, line)
				if len(tail) > tailLines {
					tail = tail[1:]
				}
			}
			ex := childExit{rank: r, err: cmd.Wait(), code: -1, tail: tail}
			if st := cmd.ProcessState; st != nil {
				ex.code = st.ExitCode()
			}
			exits <- ex
		}()
		return nil
	}

	for r := 0; r < lc.n; r++ {
		if err := start(r, false); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	// snapshotAddrs hands the scraper a race-free copy of the current
	// child endpoints.
	snapshotAddrs := func() map[int]string {
		mu.Lock()
		defer mu.Unlock()
		cp := make(map[int]string, len(obsAddrs))
		for r, a := range obsAddrs {
			cp[r] = a
		}
		return cp
	}
	if lc.wantObs() {
		scraper := newMetricsScraper(snapshotAddrs, lc.n)
		srv, err := dpgen.ServeObs(lc.obsAddr, scraper.aggregate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer srv.Close()
		fmt.Printf("supervisor: serving aggregated /metrics on http://%s\n", srv.Addr())
	}

	restarts := make(map[int]int, lc.n)
	running := lc.n
	ret := 0
	for running > 0 {
		ex := <-exits
		if ex.err == nil {
			running--
			continue
		}
		recoverable := ret == 0 && lc.ckptDir != "" && ex.rank != 0 && restarts[ex.rank] < maxRestarts
		if recoverable {
			restarts[ex.rank]++
			fmt.Fprintf(os.Stderr, "supervisor: rank %d exited (%v); restart %d/%d with -resume -rejoin\n",
				ex.rank, ex.err, restarts[ex.rank], maxRestarts)
			mu.Lock()
			delete(obsAddrs, ex.rank) // stale port; the restart announces a new one
			mu.Unlock()
			if err := start(ex.rank, true); err == nil {
				continue
			} else {
				fmt.Fprintf(os.Stderr, "supervisor: restart of rank %d failed: %v\n", ex.rank, err)
			}
		}
		// Terminal: report the failure — every failed child's, since the
		// crashed rank and the peer that saw it die exit in either order
		// — propagate the first child's status and take the rest of the
		// mesh down rather than letting it hang out its peer-down timeout.
		running--
		fmt.Fprintf(os.Stderr, "supervisor: rank %d failed (%v, exit code %d) after %d restarts\n",
			ex.rank, ex.err, ex.code, restarts[ex.rank])
		for _, line := range ex.tail {
			fmt.Fprintf(os.Stderr, "supervisor: [rank %d] %s\n", ex.rank, line)
		}
		if ret != 0 {
			continue
		}
		ret = ex.code
		if ret <= 0 {
			ret = 1
		}
		mu.Lock()
		for r, cmd := range procs {
			if r != ex.rank && cmd.Process != nil {
				cmd.Process.Kill() // no-op error if it already exited
			}
		}
		mu.Unlock()
	}
	if ret == 0 {
		for r, k := range restarts {
			fmt.Printf("supervisor: rank %d recovered after %d restart(s)\n", r, k)
		}
		ret = postRun(lc, len(restarts) > 0)
	}
	return ret
}

// rankFile is the per-rank variant of a job-wide output path.
func rankFile(path string, rank int) string {
	return fmt.Sprintf("%s.rank%d", path, rank)
}
