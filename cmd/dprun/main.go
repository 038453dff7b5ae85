// Command dprun executes a built-in problem on the hybrid runtime and
// reports the goal value, timing and per-node statistics.
//
// Usage:
//
//	dprun -problem bandit2 -params 40 -nodes 4 -threads 6
//	dprun -problem lcs3 -params 40,36,32 -check
//
// -check additionally solves the problem with the straightforward
// serial reference and verifies the values are bit-identical.
//
// Distributed mode runs each rank as a separate OS process connected
// over TCP (see docs/TRANSPORT.md). Either start every rank yourself:
//
//	dprun -problem bandit2 -distributed -rank 0 -peers host0:7000,host1:7000
//	dprun -problem bandit2 -distributed -rank 1 -peers host0:7000,host1:7000
//
// or let dprun fork a local worker process per rank:
//
//	dprun -problem bandit2 -distributed -launch 2 -threads 2 -check
//
// With -ckpt-dir the job is fault tolerant: each rank checkpoints its
// progress, peer death is detected by heartbeats instead of hanging the
// mesh, and the -launch supervisor restarts a crashed non-root rank
// with -resume -rejoin so the job still finishes with bit-identical
// results (see docs/FAULT_TOLERANCE.md):
//
//	dprun -problem bandit2 -distributed -launch 2 -ckpt-dir /tmp/ck -kill-rank 1 -crash-after-tiles 40 -check
//
// Observability (docs/OBSERVABILITY.md): with -launch, -trace collects
// one clock-aligned Perfetto trace for the whole job (a process group
// per rank, cross-rank send-to-receive flow arrows, recovery instants),
// -report prints the run-wide straggler/critical-path report,
// -stats-json writes machine-readable per-rank statistics, and
// -obs-addr serves live /metrics and /debug/pprof endpoints while the
// job runs:
//
//	dprun -problem lcs2 -distributed -launch 2 -trace out.json -report
//	dprun -check-trace out.json -problem lcs2
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"dpgen"
	"dpgen/internal/obs"
	"dpgen/internal/problems"
)

func main() {
	var (
		name     = flag.String("problem", "bandit2", "built-in problem: "+strings.Join(problems.Names(), ", "))
		paramStr = flag.String("params", "", "comma-separated parameter values (default: problem defaults)")
		nodes    = flag.Int("nodes", 1, "simulated MPI ranks (ignored with -distributed)")
		distrib  = flag.Bool("distributed", false, "run as one rank of a multi-process TCP job (with -rank/-peers), or fork a local job (with -launch)")
		rank     = flag.Int("rank", -1, "this process's rank in the -peers list (with -distributed)")
		peersStr = flag.String("peers", "", "comma-separated host:port listen addresses, one per rank, in rank order (with -distributed)")
		launch   = flag.Int("launch", 0, "fork this many local worker processes instead of joining a mesh (with -distributed)")
		threads  = flag.Int("threads", 1, "worker threads per node")
		sendBufs = flag.Int("sendbufs", 4, "send buffers per node")
		recvBufs = flag.Int("recvbufs", 16, "receive buffers per node")
		priority = flag.String("priority", "column", "tile priority: column, levelset, fifo")
		balOpt   = flag.String("balance", "prefix", "load balancer: prefix, hyperplane")
		check    = flag.Bool("check", false, "verify against the serial reference solver")
		stats    = flag.Bool("stats", false, "print per-node statistics")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON timeline (Perfetto-loadable) to this file; with -launch, one clock-aligned merged file for the whole job")
		metrics  = flag.Bool("metrics", false, "print a Prometheus text-exposition snapshot of the run")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")

		ckptDir    = flag.String("ckpt-dir", "", "checkpoint directory; enables the fault-tolerance layer (docs/FAULT_TOLERANCE.md)")
		ckptEvery  = flag.Int64("ckpt-every", 0, "checkpoint cadence in executed tiles (default 64 with -ckpt-dir)")
		resume     = flag.Bool("resume", false, "restore this rank's state from its checkpoint before running")
		rejoin     = flag.Bool("rejoin", false, "reconnect into a live recovery mesh after a crash (implies -resume)")
		crashTiles = flag.Int64("crash-after-tiles", 0, "fault injection: exit(3) after N executed tiles (rank -kill-rank only under -distributed; in-process, the whole process and every rank in it; never on a -rejoin)")
		killRank   = flag.Int("kill-rank", -1, "fault injection: the rank -crash-after-tiles applies to (-distributed only, and required there: an in-process crash ends the whole process)")

		elastic        = flag.Bool("elastic", false, "enable elastic membership: ranks may join and leave mid-run (docs/ELASTICITY.md)")
		elasticLeave   = flag.Int64("elastic-leave-after", 0, "rank -leave-rank requests a voluntary leave after executing N tiles (0: at once)")
		scaleAtStr     = flag.String("scale-at", "", "rank-0 scale schedule, comma-separated tiles:delta pairs (e.g. 100:+2,500:-1)")
		elasticInitial = flag.Int("elastic-initial", 0, "size N of the initial member set: ranks [0, N) start as members, the rest join mid-run (default every rank)")
		leaveRank      = flag.Int("leave-rank", -1, "the rank -elastic-leave-after applies to (required with it under -distributed)")

		report       = flag.Bool("report", false, "print the run-wide observability report: per-rank breakdowns, load imbalance, stragglers, critical path (implies tracing)")
		statsJSON    = flag.String("stats-json", "", "write machine-readable run statistics as JSON to this file ('-' for stdout); with -launch, one JSON array over all ranks")
		obsAddr      = flag.String("obs-addr", "", "serve live /metrics (Prometheus) and /debug/pprof on this address while the run is in flight; with -launch the supervisor serves a job-wide aggregate here")
		metricsOut   = flag.String("metrics-out", "", "write this rank's final Prometheus wire-metrics snapshot to this file; with -launch, one aggregated snapshot over all ranks")
		checkTrace   = flag.String("check-trace", "", "verify a merged trace file's invariants and critical-path bound against -problem, then exit")
		traceLenient = flag.Bool("trace-lenient", false, "verify traces with the lenient flow-pairing rules (required for runs that restarted a rank)")
	)
	flag.Parse()

	if *checkTrace != "" {
		os.Exit(checkTraceMain(*checkTrace, *name, *traceLenient))
	}

	if !*distrib && *killRank >= 0 {
		fatal(fmt.Errorf("-kill-rank needs -distributed: an in-process crash ends the whole process, every rank with it"))
	}
	if *distrib && *crashTiles > 0 && *killRank < 0 {
		fatal(fmt.Errorf("-crash-after-tiles needs -kill-rank under -distributed: name the rank that crashes"))
	}
	if *distrib && *elasticLeave > 0 && *leaveRank < 0 {
		fatal(fmt.Errorf("-elastic-leave-after needs -leave-rank under -distributed: name the rank that leaves"))
	}
	if *launch > 0 {
		if !*distrib {
			fatal(fmt.Errorf("-launch requires -distributed"))
		}
		os.Exit(launchLocal(launchConfig{
			n:          *launch,
			ckptDir:    *ckptDir,
			traceOut:   *traceOut,
			statsJSON:  *statsJSON,
			report:     *report,
			obsAddr:    *obsAddr,
			metricsOut: *metricsOut,
			lenient:    *traceLenient,
			problem:    *name,
		}))
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	p, err := problems.Get(*name)
	if err != nil {
		fatal(err)
	}
	params := p.DefaultParams
	if *paramStr != "" {
		params = nil
		for _, f := range strings.Split(*paramStr, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				fatal(fmt.Errorf("bad -params entry %q: %v", f, err))
			}
			params = append(params, v)
		}
	}
	cfg := dpgen.Config{
		Nodes: *nodes, Threads: *threads,
		SendBufs: *sendBufs, RecvBufs: *recvBufs,
		Checkpoint: dpgen.CheckpointConfig{
			Dir:        *ckptDir,
			EveryTiles: *ckptEvery,
			Resume:     *resume || *rejoin,
		},
	}
	// One job-wide configuration: every rank reads the same flags and
	// applies the ones that name its -rank.
	if *elastic {
		schedule, err := parseScaleAt(*scaleAtStr)
		if err != nil {
			fatal(err)
		}
		cfg.Elastic = dpgen.ElasticConfig{Enabled: true, ScaleAt: schedule}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "elastic-initial" {
				// Out-of-range sizes fail in the engine's member check.
				cfg.Elastic.Members = []int{}
				for r := 0; r < *elasticInitial; r++ {
					cfg.Elastic.Members = append(cfg.Elastic.Members, r)
				}
			}
		})
		if *leaveRank >= 0 {
			cfg.Elastic.LeaveAfter = map[int]int64{*leaveRank: *elasticLeave}
		}
	}
	if *crashTiles > 0 && (!*distrib || *rank == *killRank) && !*rejoin {
		cfg.CrashAfterTiles = *crashTiles
		cfg.CrashFn = func() {
			fmt.Fprintf(os.Stderr, "injected crash after %d tiles\n", *crashTiles)
			os.Exit(3)
		}
	}
	var tracer *dpgen.Tracer
	if *traceOut != "" || *metrics || *report {
		tracer = dpgen.NewTracer()
		cfg.Tracer = tracer
	}
	if *distrib {
		peers := strings.Split(*peersStr, ",")
		if *peersStr == "" || *rank < 0 || *rank >= len(peers) {
			fatal(fmt.Errorf("-distributed needs -rank in [0,%d) and a -peers address per rank (or -launch N)", len(peers)))
		}
		ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stopSig()
		opts := dpgen.TCPOptions{
			SendBufs: *sendBufs,
			RecvBufs: *recvBufs,
			Recovery: *ckptDir != "",
			Context:  ctx,
		}
		if tracer != nil {
			opts.Observer = recoveryObserver(tracer, *rank, *threads)
		}
		var tr dpgen.Transport
		if *rejoin {
			tr, err = dpgen.DialTCPRejoin(*rank, peers, opts)
		} else {
			tr, err = dpgen.DialTCP(*rank, peers, opts)
		}
		if err != nil {
			fatal(err)
		}
		cfg.Transport = tr
	}
	switch *priority {
	case "column":
		cfg.Priority = dpgen.ColumnMajor
	case "levelset":
		cfg.Priority = dpgen.LevelSet
	case "fifo":
		cfg.Priority = dpgen.FIFO
	default:
		fatal(fmt.Errorf("unknown -priority %q", *priority))
	}
	switch *balOpt {
	case "prefix":
		cfg.Balance = dpgen.Prefix
	case "hyperplane":
		cfg.Balance = dpgen.Hyperplane
	default:
		fatal(fmt.Errorf("unknown -balance %q", *balOpt))
	}

	if *obsAddr != "" {
		srv, err := dpgen.ServeObs(*obsAddr, liveMetrics(cfg.Transport))
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		// The -launch supervisor parses this line to discover the port.
		fmt.Printf("obs       http://%s (live /metrics and /debug/pprof)\n", srv.Addr())
	}

	tl, err := dpgen.Analyze(p.Spec)
	if err != nil {
		fatal(err)
	}
	res, err := dpgen.RunAnalyzed(tl, p.Kernel, params, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("problem   %s\n", p.Spec.Name)
	if *distrib {
		fmt.Printf("rank      %d of %d (distributed over TCP)\n", *rank, len(res.Stats))
	}
	fmt.Printf("params    %v\n", params)
	fmt.Printf("value     %.17g\n", res.Value)
	fmt.Printf("max       %.17g\n", res.Max)
	fmt.Printf("init      %s\n", res.InitTime)
	fmt.Printf("total     %s\n", res.TotalTime)
	fmt.Printf("messages  %d (%d elements)\n", res.Messages, res.Elems)
	if *stats {
		for i, st := range res.Stats {
			if *distrib && i != *rank {
				continue // remote ranks report their own stats
			}
			fmt.Printf("node %d: tiles %d cells %d sent %d recv %d local %d peak_edges %d peak_elems %d idle %s send_stall %s\n",
				i, st.TilesExecuted, st.CellsComputed, st.EdgesSentRemote, st.EdgesRecvRemote,
				st.EdgesLocal, st.PeakPendingEdges, st.PeakBufferedElems, st.IdleTime, st.SendStallTime)
			fmt.Printf("node %d: sched steals %d local_pops %d queue_peak %d\n",
				i, st.Steals, st.LocalPops, st.QueueDepthPeak)
			if *ckptDir != "" {
				fmt.Printf("node %d: ckpts %d ckpt_bytes %d dup_dropped %d hb_misses %d peer_restarts %d\n",
					i, st.Checkpoints, st.CheckpointBytes, st.EdgesDroppedDup,
					st.HeartbeatMisses, st.PeerRestarts)
			}
			if *elastic {
				fmt.Printf("node %d: epochs %d migrated_out %d (%d edges) migrated_in %d (%d edges) forwarded %d\n",
					i, st.Epochs, st.TilesMigratedOut, st.EdgesMigratedOut,
					st.TilesMigratedIn, st.EdgesMigratedIn, st.EdgesForwarded)
			}
			if st.WireBytesSent != 0 || st.WireBytesRecv != 0 {
				fmt.Printf("node %d: wire_sent %d wire_recv %d\n", i, st.WireBytesSent, st.WireBytesRecv)
			}
		}
	}
	if *statsJSON != "" {
		if err := writeStatsJSON(*statsJSON, p.Spec.Name, params, *rank, *distrib, res, cfg.Transport); err != nil {
			fatal(err)
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		if err := liveMetrics(cfg.Transport)(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if tracer != nil {
		snap := tracer.Snapshot()
		if *distrib {
			snap.Meta = traceMeta(tracer, *rank, len(res.Stats), cfg.Transport)
		}
		rr, err := dpgen.BuildRunReport(tl, snap, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("critpath  %s\n", rr.CritPath)
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			if err := snap.WriteChrome(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("trace     %s (%d events, %d lanes)\n", *traceOut, len(snap.Events), len(snap.Lanes))
		}
		if *report {
			if err := rr.WriteText(os.Stdout); err != nil {
				fatal(err)
			}
		}
		if *metrics {
			if err := rr.Metrics.WritePrometheus(os.Stdout); err != nil {
				fatal(err)
			}
		}
	}
	if *check {
		start := time.Now()
		want := p.Serial(params)
		got := res.Value
		if p.UseMax {
			got = res.Max
		}
		fmt.Printf("serial    %.17g (%s)\n", want, time.Since(start))
		if want != got {
			fatal(fmt.Errorf("MISMATCH: hybrid %v != serial %v", got, want))
		}
		fmt.Println("check     OK (bit-identical)")
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // settle allocations so the profile shows retained heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// recoveryObserver bridges the transport's recovery callbacks (which
// fire from heartbeat and reader goroutines) onto a dedicated
// single-writer "recovery" trace lane, serialized by a mutex. The lane
// index sits above the engine's worker/recv/init/ckpt lanes.
func recoveryObserver(tracer *dpgen.Tracer, rank, threads int) func(event string, peer int, val int64) {
	lane := tracer.Lane(rank, threads+3, "recovery")
	var mu sync.Mutex
	return func(event string, peer int, val int64) {
		var k obs.Kind
		switch event {
		case dpgen.ObsPeerDown:
			k = obs.KPeerDown
		case dpgen.ObsPark:
			k = obs.KPark
		case dpgen.ObsRejoin:
			k = obs.KRejoin
		case dpgen.ObsReplay:
			k = obs.KReplay
		default:
			return
		}
		mu.Lock()
		lane.Instant(k, "peer"+strconv.Itoa(peer), int32(peer), val)
		mu.Unlock()
	}
}

// traceMeta builds the clock-alignment metadata stamped into a
// distributed rank's trace file; MergeTraces aligns on it.
func traceMeta(tracer *dpgen.Tracer, rank, ranks int, tr dpgen.Transport) *dpgen.TraceMeta {
	meta := &dpgen.TraceMeta{
		Rank:         rank,
		Ranks:        ranks,
		OriginUnixNs: tracer.Origin().UnixNano(),
	}
	if ns, ok := dpgen.TransportNetStats(tr); ok {
		meta.ClockOffsetNs = ns.ClockOffsetNs
		meta.ClockRTTNs = ns.ClockRTTNs
	}
	return meta
}

// liveMetrics is the /metrics body of a single rank: the transport's
// wire-level counters and edge-latency histogram, all atomic-backed and
// safe to read mid-run. Non-distributed runs have no live source.
func liveMetrics(tr dpgen.Transport) func(w io.Writer) error {
	return func(w io.Writer) error {
		if ns, ok := dpgen.TransportNetStats(tr); ok {
			return ns.WritePrometheus(w)
		}
		_, err := fmt.Fprintln(w, "# dprun: no live metrics source (not a distributed TCP run)")
		return err
	}
}

// parseScaleAt parses the -scale-at schedule: comma-separated
// tiles:delta pairs, e.g. "100:+2,500:-1" grows the member set by two
// ranks once rank 0 has executed 100 tiles and shrinks it by one at 500.
func parseScaleAt(s string) ([]dpgen.ScaleEvent, error) {
	if s == "" {
		return nil, nil
	}
	var evs []dpgen.ScaleEvent
	for _, f := range strings.Split(s, ",") {
		tiles, delta, ok := strings.Cut(strings.TrimSpace(f), ":")
		if !ok {
			return nil, fmt.Errorf("bad -scale-at entry %q: want tiles:delta", f)
		}
		at, err := strconv.ParseInt(tiles, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -scale-at tile count %q: %v", tiles, err)
		}
		d, err := strconv.Atoi(delta)
		if err != nil || d == 0 {
			return nil, fmt.Errorf("bad -scale-at delta %q: want a non-zero signed rank count", delta)
		}
		evs = append(evs, dpgen.ScaleEvent{AfterTiles: at, Delta: d})
	}
	return evs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
