package dpgen

import (
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dpgen/internal/engine"
	"dpgen/internal/mpi/tcp"
	"dpgen/internal/obs"
	"dpgen/internal/problems"
)

// buildDprunBinary compiles cmd/dprun into the test's temp dir.
func buildDprunBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dprun")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dprun")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/dprun: %v\n%s", err, out)
	}
	return bin
}

// parseMergedTrace loads and re-parses a merged trace file.
func parseMergedTrace(t *testing.T, path string) *Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := ParseTrace(f)
	if err != nil {
		t.Fatalf("parsing merged trace %s: %v", path, err)
	}
	return tr
}

// TestDprunTraceMergeClean is the clean-run end-to-end check of the
// observability plane: a two-OS-process lcs2 job through -launch with
// -trace, -report, -stats-json and -metrics-out must produce one
// clock-aligned merged Perfetto file that satisfies the strict
// invariants, a report whose critical path respects the makespan, a
// two-entry stats array, and an aggregated metrics exposition.
func TestDprunTraceMergeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning test in -short mode")
	}
	bin := buildDprunBinary(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.json")
	statsPath := filepath.Join(dir, "stats.json")
	metricsPath := filepath.Join(dir, "metrics.prom")

	cmd := exec.Command(bin, "-problem", "lcs2", "-distributed", "-launch", "2", "-threads", "2",
		"-trace", tracePath, "-report", "-stats-json", statsPath, "-metrics-out", metricsPath, "-check")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("dprun -launch with observability flags: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"OK (bit-identical)", "(merged, 2 ranks,", "run report:", "load imbalance ratio"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}

	// Merged trace: one file, aligned metadata, strict invariants, and
	// the per-rank intermediates cleaned up.
	tr := parseMergedTrace(t, tracePath)
	if tr.Meta == nil || !tr.Meta.Aligned || tr.Meta.Ranks != 2 {
		t.Fatalf("merged trace meta = %+v, want aligned 2-rank metadata", tr.Meta)
	}
	if viol := VerifyMergedTrace(tr, true); len(viol) != 0 {
		t.Errorf("merged trace violates strict invariants: %v", viol)
	}
	if len(tr.Flows) == 0 {
		t.Error("merged trace has no cross-rank flows; lcs2 over 2 ranks must exchange edges")
	}
	nodes := map[int32]bool{}
	for _, l := range tr.Lanes {
		nodes[l.Node] = true
	}
	if !nodes[0] || !nodes[1] {
		t.Errorf("merged trace lanes cover nodes %v, want both ranks", nodes)
	}
	for r := 0; r < 2; r++ {
		if _, err := os.Stat(tracePath + ".rank" + string(rune('0'+r))); err == nil {
			t.Errorf("per-rank trace file rank%d survived the merge", r)
		}
	}

	// Run-wide report invariant: cross-rank critical path <= makespan.
	p, err := problems.Get("lcs2")
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Analyze(p.Spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildRunReport(tl, tr, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CritPath == nil {
		t.Fatal("run report lacks the critical path")
	}
	if cp, mk := rep.CritPath.CriticalPath, rep.CritPath.Makespan; cp > mk {
		t.Errorf("critical path %v exceeds makespan %v", cp, mk)
	}
	if len(rep.Ranks) != 2 {
		t.Errorf("report covers %d ranks, want 2", len(rep.Ranks))
	}

	// Stats rollup: one JSON array entry per rank, wire counters set.
	var docs []struct {
		Rank  int `json:"rank"`
		Ranks int `json:"ranks"`
		Nodes []struct {
			WireBytesSent int64
			WireBytesRecv int64
		} `json:"nodes"`
		Net *struct {
			ClockRTTNs int64 `json:"clock_rtt_ns"`
		} `json:"net"`
	}
	b, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &docs); err != nil {
		t.Fatalf("stats rollup is not a JSON array: %v\n%s", err, b)
	}
	if len(docs) != 2 {
		t.Fatalf("stats rollup has %d entries, want 2", len(docs))
	}
	for i, d := range docs {
		if d.Rank != i || d.Ranks != 2 || len(d.Nodes) != 1 {
			t.Errorf("stats entry %d = %+v, want rank %d of 2 with one node", i, d, i)
		}
		if len(d.Nodes) == 1 && d.Nodes[0].WireBytesSent == 0 {
			t.Errorf("stats entry %d has zero wire bytes sent", i)
		}
		if d.Net == nil {
			t.Errorf("stats entry %d lacks the transport net snapshot", i)
		} else if i != 0 && d.Net.ClockRTTNs <= 0 {
			t.Errorf("rank %d reports no clock-probe RTT", i)
		}
	}

	// Metrics aggregate: rank-labelled families from both ranks, merged
	// family by family.
	mb, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	mtext := string(mb)
	for _, want := range []string{
		`dp_net_bytes_sent_total{rank="0"}`,
		`dp_net_bytes_sent_total{rank="1"}`,
		`dp_edge_latency_seconds_count{rank="0"}`,
	} {
		if !strings.Contains(mtext, want) {
			t.Errorf("aggregated metrics lack %q:\n%s", want, mtext)
		}
	}
	if n := strings.Count(mtext, "# HELP dp_net_bytes_sent_total"); n != 1 {
		t.Errorf("HELP line for dp_net_bytes_sent_total appears %d times, want 1 (dedup)", n)
	}
	// Each family is one contiguous group: its HELP and TYPE lines, then
	// both ranks' samples (a histogram's _bucket/_sum/_count included).
	hist := map[string]bool{}
	done := map[string]bool{}
	prev := ""
	for _, line := range strings.Split(strings.TrimSpace(mtext), "\n") {
		var fam string
		if f := strings.Fields(line); f[0] == "#" {
			fam = f[2]
			hist[fam] = hist[fam] || (f[1] == "TYPE" && f[3] == "histogram")
		} else {
			fam = strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0]
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(fam, suffix); hist[base] {
					fam = base
				}
			}
		}
		if fam != prev {
			if done[fam] {
				t.Errorf("family %s resumes at %q after another family", fam, line)
			}
			done[prev] = true
			prev = fam
		}
	}

	// The -check-trace mode must accept the file it just produced.
	check := exec.Command(bin, "-check-trace", tracePath, "-problem", "lcs2")
	if out, err := check.CombinedOutput(); err != nil {
		t.Errorf("dprun -check-trace rejected a clean merged trace: %v\n%s", err, out)
	}
}

// TestDprunTraceMergeRecovery runs the observability plane through a
// crash-and-rejoin job: the merged trace must still verify under the
// lenient recovery rules and must contain the transport's recovery
// instants (peer-down, rejoin, replay) on the dedicated lane.
func TestDprunTraceMergeRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning test in -short mode")
	}
	bin := buildDprunBinary(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "rec.json")

	cmd := exec.Command(bin, "-problem", "lcs2", "-distributed", "-launch", "2", "-threads", "2",
		"-ckpt-dir", t.TempDir(), "-ckpt-every", "8", "-kill-rank", "1", "-crash-after-tiles", "20",
		"-trace", tracePath, "-check")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("supervised recovery run with -trace: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"OK (bit-identical)", "recovered after", "(merged, 2 ranks,"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}

	tr := parseMergedTrace(t, tracePath)
	if viol := VerifyMergedTrace(tr, false); len(viol) != 0 {
		t.Errorf("recovery trace violates lenient invariants: %v", viol)
	}
	kinds := map[obs.Kind]int{}
	recoveryLane := false
	for _, e := range tr.Events {
		kinds[e.Kind]++
	}
	for _, l := range tr.Lanes {
		if l.Name == "recovery" {
			recoveryLane = true
		}
	}
	if !recoveryLane {
		t.Error("merged trace has no recovery lane")
	}
	if kinds[obs.KPeerDown] == 0 {
		t.Error("merged trace records no peer-down instant despite the injected crash")
	}
	if kinds[obs.KRejoin] == 0 && kinds[obs.KReplay] == 0 {
		t.Error("merged trace records neither a rejoin nor a replay instant")
	}

	// Strict check-trace must reject it; lenient must accept it.
	strict := exec.Command(bin, "-check-trace", tracePath, "-problem", "lcs2")
	if out, err := strict.CombinedOutput(); err == nil {
		t.Errorf("strict -check-trace accepted a recovery trace with orphaned sends:\n%s", out)
	}
	lenient := exec.Command(bin, "-check-trace", tracePath, "-problem", "lcs2", "-trace-lenient")
	if out, err := lenient.CombinedOutput(); err != nil {
		t.Errorf("lenient -check-trace rejected the recovery trace: %v\n%s", err, out)
	}
}

// The cross-rank tracing machinery costs a run that does NOT trace two
// things: the clock-sync handshake at mesh-up, and an aligned send
// timestamp in every DATA frame. TestDistributedTracingCost pins both
// in counts that repeat exactly — wire bytes and frames per DATA send,
// allocations per send, frames and bytes per run — against the same
// mesh with Options.DisableClockSync, the closest reachable stand-in
// for the pre-observability transport. A wall-clock ratio of the two
// runs (what this file asserted before) varies by more than the 5% it
// tried to bound, so it is opt-in: see the guard below.

// tcpPair dials a two-rank loopback mesh and, with clock sync on, waits
// for rank 1's handshake so no probe frame is in flight afterwards.
func tcpPair(t *testing.T, disableClockSync bool) [2]*tcp.Transport {
	t.Helper()
	var lns [2]net.Listener
	peers := make([]string, 2)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r], peers[r] = ln, ln.Addr().String()
	}
	var trs [2]*tcp.Transport
	var errs [2]error
	var wg sync.WaitGroup
	for r := range trs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = tcp.Dial(r, peers, tcp.Options{
				DialTimeout: 15 * time.Second, Listener: lns[r], DisableClockSync: disableClockSync,
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		// Close is collective: both ends must be in it.
		var wg sync.WaitGroup
		for _, tr := range trs {
			wg.Add(1)
			go func(tr *tcp.Transport) { defer wg.Done(); tr.Close() }(tr)
		}
		wg.Wait()
	})
	for deadline := time.Now().Add(15 * time.Second); !disableClockSync; time.Sleep(time.Millisecond) {
		if _, rtt := trs[1].ClockOffset(); rtt != 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("clock sync never completed")
		}
	}
	return trs
}

func TestDistributedTracingCost(t *testing.T) {
	// Wire frames: u32 length, u8 kind, body. A DATA body is a fixed
	// 40-byte header (the send timestamp is 8 of them, zero or not)
	// plus 8 bytes per meta and data word; a clock probe carries one
	// i64 and its response two.
	const (
		frameOverhead = 4 + 1
		dataHeader    = 40
		clockProbes   = 8 // the tcp package's clockProbes
		clockReqBytes = frameOverhead + 8
		clockResBytes = frameOverhead + 16
	)

	// Per send, on a raw mesh: bytes and frames rank 0 puts on the wire
	// for one DATA message, and allocations per send/receive/release
	// round trip, identical with tracing armed and not.
	data, meta := make([]float64, 17), []int64{3, 4}
	wantBytes := int64(frameOverhead + dataHeader + 8*len(meta) + 8*len(data))
	var allocs [2]float64
	for i, disable := range []bool{true, false} {
		trs := tcpPair(t, disable)
		roundTrip := func() {
			trs[0].Send(1, 7, data, meta)
			m, ok := trs[1].Recv()
			if !ok {
				t.Fatal("recv failed")
			}
			m.Release()
		}
		roundTrip() // connection buffers and pools warm
		before := trs[0].NetStats().Peers[0]
		const sends = 50
		for k := 0; k < sends; k++ {
			roundTrip()
		}
		after := trs[0].NetStats().Peers[0]
		if got := after.FramesSent - before.FramesSent; got != sends {
			t.Errorf("DisableClockSync=%v: %d frames for %d sends", disable, got, sends)
		}
		if got := after.BytesSent - before.BytesSent; got != sends*wantBytes {
			t.Errorf("DisableClockSync=%v: %d wire bytes for %d sends, want %d each (a %d-byte DATA header)",
				disable, got, sends, wantBytes, dataHeader)
		}
		allocs[i] = testing.AllocsPerRun(200, roundTrip)
	}
	t.Logf("allocations per send round trip: %v unarmed, %v armed", allocs[0], allocs[1])
	if allocs[1] > allocs[0] {
		t.Errorf("an armed send round trip allocates %v objects, an unarmed one %v", allocs[1], allocs[0])
	}

	// Per run, through the engine: the armed two-rank lcs2 job sends
	// the same DATA messages as the unarmed one, and on top exactly the
	// handshake's probes (rank 1) and responses (rank 0).
	p, err := problems.Get("lcs2")
	if err != nil {
		t.Fatal(err)
	}
	run := func(disable bool) [2]tcp.NetStats {
		var trs [2]*tcp.Transport
		res := runDistributedTCPOpts(t, p, p.DefaultParams, 2, 2,
			func(r int, o *tcp.Options) { o.DisableClockSync = disable },
			func(r int, c *engine.Config) { trs[r] = c.Transport.(*tcp.Transport) })
		out := [2]tcp.NetStats{trs[0].NetStats(), trs[1].NetStats()}
		if got := out[0].Messages + out[1].Messages; got == 0 || got != res[0].Messages {
			t.Fatalf("ranks sent %d DATA messages, the merged result says %d", got, res[0].Messages)
		}
		return out
	}
	base, armed := run(true), run(false)
	for r, extra := range []struct{ frames, bytes int64 }{
		{clockProbes, clockProbes * clockResBytes}, // rank 0 answers
		{clockProbes, clockProbes * clockReqBytes}, // rank 1 asks
	} {
		b, a := base[r], armed[r]
		if a.Messages != b.Messages || a.Elems != b.Elems {
			t.Errorf("rank %d: armed run sent %d messages / %d elems, unarmed %d / %d",
				r, a.Messages, a.Elems, b.Messages, b.Elems)
		}
		if got := a.Peers[0].FramesSent - b.Peers[0].FramesSent; got != extra.frames {
			t.Errorf("rank %d: armed run sent %d frames, unarmed %d: the handshake should add exactly %d",
				r, a.Peers[0].FramesSent, b.Peers[0].FramesSent, extra.frames)
		}
		if got := a.BytesSent - b.BytesSent; got != extra.bytes {
			t.Errorf("rank %d: armed run sent %d bytes, unarmed %d: the handshake should add exactly %d",
				r, a.BytesSent, b.BytesSent, extra.bytes)
		}
	}
}

// TestDistributedTracingOverheadGuard is the wall-clock form of the
// check above: the armed path within 5% of the unarmed one, min-of-N.
// Two ~15 ms runs on a shared host differ by more than that about half
// the time, so it runs only with DPGEN_TIMING_GUARDS=1 (and the same
// pair is BenchmarkTracerOverheadDistributed under -bench).
func TestDistributedTracingOverheadGuard(t *testing.T) {
	if os.Getenv("DPGEN_TIMING_GUARDS") == "" {
		t.Skip("wall-clock guard: set DPGEN_TIMING_GUARDS=1 to run it")
	}
	p, err := problems.Get("lcs2")
	if err != nil {
		t.Fatal(err)
	}
	params := p.DefaultParams // the paper-scale lcs2 instance

	const rounds = 7
	minWall := func(optsFn func(r int, o *tcp.Options)) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < rounds; i++ {
			start := time.Now()
			runDistributedTCPOpts(t, p, params, 2, 2, optsFn, nil)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	// Interleave a warmup of each side before timing.
	runDistributedTCP(t, p, params, 2, 2)
	baseline := minWall(func(r int, o *tcp.Options) { o.DisableClockSync = true })
	armed := minWall(nil)

	ratio := float64(armed) / float64(baseline)
	t.Logf("two-rank lcs2 wall: baseline %v, tracing-armed %v, ratio %.3f", baseline, armed, ratio)
	if ratio > 1.05 {
		t.Errorf("untraced runs pay %.1f%% for the cross-rank tracing path, want < 5%% (baseline %v, armed %v)",
			(ratio-1)*100, baseline, armed)
	}
}
