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
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"dpgen"
)

// launchConfig carries the supervisor-relevant flag values into
// launchLocal.
type launchConfig struct {
	n          int    // ranks to fork
	ckptDir    string // non-empty enables recovery restarts
	killRank   int    // fault injection target rank (-1 none)
	crashTiles int64  // fault injection tile budget

	elastic    bool   // elastic membership (docs/ELASTICITY.md)
	elasticN   int    // initial member count (0: every rank is a member)
	leaveRank  int    // rank scheduled for a voluntary leave (-1 none)
	leaveAfter int64  // leave threshold in executed tiles, for leaveRank
	scaleAt    string // rank-0 scale schedule, tiles:delta pairs
	leavesWant int    // -expect-leaves override (0: derived from leaveRank)

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
// -distributed -rank r -peers ..., forwarding the other explicitly-set
// flags (except per-process outputs like -trace and the profiles, whose
// filenames would collide), and prefixes each child's output with its
// rank. With -kill-rank it forwards the -crash-after-tiles fault
// injection to that rank only.
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
	peers := make([]string, lc.n)
	for r := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		peers[r] = ln.Addr().String()
		// Freed here and re-bound by the child; the dial retry in the
		// transport rides out the window.
		ln.Close()
	}
	var common []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "launch", "distributed", "rank", "peers", "nodes",
			"trace", "metrics", "cpuprofile", "memprofile",
			"kill-rank", "crash-after-tiles",
			"resume", "rejoin",
			"elastic-members", "elastic-join", "elastic-leave-after",
			"scale-at", "expect-leaves", "elastic-initial", "leave-rank",
			"report", "stats-json", "obs-addr", "metrics-out",
			"check-trace", "trace-lenient":
			return
		}
		common = append(common, "-"+f.Name+"="+f.Value.String())
	})

	statsBase := lc.statsJSON
	if statsBase == "-" {
		// Children need real files; the rollup goes to stdout at the end.
		statsBase = filepath.Join(os.TempDir(), fmt.Sprintf("dprun-stats-%d.json", os.Getpid()))
	}
	// perRank is the per-child output plumbing re-applied on restarts:
	// rank-suffixed trace and stats files, and an ephemeral live
	// observability port when the supervisor wants to scrape.
	perRank := func(r int) []string {
		var extra []string
		if lc.traceOut != "" {
			extra = append(extra, "-trace="+rankFile(lc.traceOut, r))
		}
		if lc.statsJSON != "" {
			extra = append(extra, "-stats-json="+rankFile(statsBase, r))
		}
		if lc.metricsOut != "" {
			extra = append(extra, "-metrics-out="+rankFile(lc.metricsOut, r))
		}
		if lc.wantObs() {
			extra = append(extra, "-obs-addr=127.0.0.1:0")
		}
		if lc.elastic {
			extra = append(extra, lc.elasticFlags(r)...)
		}
		return extra
	}

	var mu sync.Mutex // serializes output lines and the process table
	procs := make(map[int]*exec.Cmd, lc.n)
	obsAddrs := make(map[int]string, lc.n) // rank -> live endpoint address
	exits := make(chan childExit, lc.n)

	// start launches (or relaunches) rank r and begins streaming its
	// output; extra carries the restart or fault-injection flags.
	start := func(r int, extra ...string) error {
		args := append([]string{
			"-distributed",
			"-rank", strconv.Itoa(r),
			"-peers", strings.Join(peers, ","),
		}, common...)
		args = append(args, perRank(r)...)
		args = append(args, extra...)
		cmd := exec.Command(exe, args...)
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
		var extra []string
		if r == lc.killRank && lc.crashTiles > 0 {
			extra = []string{"-crash-after-tiles", strconv.FormatInt(lc.crashTiles, 10)}
		}
		if err := start(r, extra...); err != nil {
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
			if err := start(ex.rank, "-resume", "-rejoin"); err == nil {
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
		ret = postRun(lc, statsBase, len(restarts) > 0)
	}
	return ret
}

// elasticFlags computes rank r's membership role in an -elastic job:
// ranks below the initial member count (-elastic-initial, default all)
// start as members, the rest start as standbys announcing a join; rank
// -leave-rank is scheduled for a voluntary departure; rank 0 carries
// the -scale-at schedule and waits for the scheduled leave before
// declaring the membership final.
func (lc launchConfig) elasticFlags(r int) []string {
	init := lc.elasticN
	if init <= 0 || init > lc.n {
		init = lc.n
	}
	ranks := make([]string, init)
	for i := range ranks {
		ranks[i] = strconv.Itoa(i)
	}
	flags := []string{"-elastic-members=" + strings.Join(ranks, ",")}
	if r >= init {
		flags = append(flags, "-elastic-join")
	}
	if r == lc.leaveRank && lc.leaveAfter > 0 {
		flags = append(flags, "-elastic-leave-after="+strconv.FormatInt(lc.leaveAfter, 10))
	}
	if r == 0 {
		if lc.scaleAt != "" {
			flags = append(flags, "-scale-at="+lc.scaleAt)
		}
		want := lc.leavesWant
		if want == 0 && lc.leaveRank >= 0 && lc.leaveAfter > 0 {
			want = 1
		}
		if want > 0 {
			flags = append(flags, "-expect-leaves="+strconv.Itoa(want))
		}
	}
	return flags
}

// rankFile is the per-rank variant of a job-wide output path.
func rankFile(path string, rank int) string {
	return fmt.Sprintf("%s.rank%d", path, rank)
}
