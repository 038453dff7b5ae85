package dpgen

import (
	"math"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"dpgen/internal/engine"
	"dpgen/internal/mpi/tcp"
	"dpgen/internal/problems"
	"dpgen/internal/tiling"
)

// runDistributedTCP executes one problem as nranks engine.Run calls,
// each holding its own TCP transport endpoint over loopback — the
// in-process analog of nranks separate OS processes (the process-level
// version is TestDprunDistributedSmoke). Every rank's Result is
// returned.
func runDistributedTCP(tb testing.TB, p *problems.Problem, params []int64, nranks, threads int) []*engine.Result {
	tb.Helper()
	return runDistributedTCPOpts(tb, p, params, nranks, threads, nil, nil)
}

// runDistributedTCPOpts is runDistributedTCP with per-rank hooks:
// optsFn may adjust rank r's transport options and cfgFn its engine
// config (e.g. to attach a tracer) before the rank starts.
func runDistributedTCPOpts(tb testing.TB, p *problems.Problem, params []int64, nranks, threads int,
	optsFn func(r int, o *tcp.Options), cfgFn func(r int, c *engine.Config)) []*engine.Result {
	tb.Helper()
	lns, peers, err := tcp.Loopback(nranks)
	if err != nil {
		tb.Fatal(err)
	}
	results := make([]*engine.Result, nranks)
	errs := make([]error, nranks)
	var wg sync.WaitGroup
	for r := 0; r < nranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Each rank recomputes the analysis itself, as separate
			// processes would.
			tl, err := tiling.New(p.Spec)
			if err != nil {
				errs[r] = err
				return
			}
			opts := tcp.Options{
				DialTimeout: 15 * time.Second,
				Listener:    lns[r],
			}
			if optsFn != nil {
				optsFn(r, &opts)
			}
			tr, err := tcp.Dial(r, peers, opts)
			if err != nil {
				errs[r] = err
				return
			}
			cfg := engine.Config{
				Transport: tr,
				Threads:   threads,
			}
			if cfgFn != nil {
				cfgFn(r, &cfg)
			}
			results[r], errs[r] = engine.Run(tl, p.Kernel, params, cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			tb.Fatalf("rank %d: %v", r, err)
		}
	}
	return results
}

// TestDistributedTCPEquivalence is the sibling of
// TestFastPathEquivalence for the TCP transport: a two-rank run over
// real localhost sockets must produce bit-identical Value and Max to
// the in-memory transport with the same node count, on every rank, and
// match the serial reference exactly. Both run the same per-rank code,
// so each TCP rank's own Stats entry must also match the in-process
// run's entry for that rank in its tile, cell and edge counts, and the
// in-process run must fill every entry and deliver one edge per tile
// dependence whose producer exists: knap at W <= 2 has edges that carry
// no element, and they still cross the wire.
func TestDistributedTCPEquivalence(t *testing.T) {
	ins := []equivalenceInstance{{"bandit2", "bandit2", nil}, {"lcs2", "lcs2", nil}, {"mcm", "mcm", nil}, {"obst", "obst", nil}}
	for _, in := range equivalenceInstances() {
		if in.problem == "knap" {
			ins = append(ins, in)
		}
	}
	for _, in := range ins {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			p, err := problems.Get(in.problem)
			if err != nil {
				t.Fatal(err)
			}
			params := p.DefaultParams
			if in.params != nil {
				params = in.params
			}
			serial := p.Serial(params)

			tl, err := tiling.New(p.Spec)
			if err != nil {
				t.Fatal(err)
			}
			const nranks, threads = 2, 2
			ref, err := engine.Run(tl, p.Kernel, params, engine.Config{Nodes: nranks, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}

			var edges int64
			for r, st := range ref.Stats {
				if st.TilesExecuted == 0 || st.CellsComputed == 0 {
					t.Errorf("in-process rank %d: Stats entry empty: %+v", r, st)
				}
				edges += st.EdgesLocal + st.EdgesSentRemote
			}
			if want := dagEdges(tl, params); edges != want {
				t.Errorf("in-process run delivered %d edges, the tile graph has %d", edges, want)
			}

			results := runDistributedTCP(t, p, params, nranks, threads)
			for r, res := range results {
				got, want := res.Stats[r], ref.Stats[r]
				if got.TilesExecuted != want.TilesExecuted || got.CellsComputed != want.CellsComputed ||
					got.EdgesSentRemote != want.EdgesSentRemote || got.EdgesRecvRemote != want.EdgesRecvRemote ||
					got.EdgesLocal != want.EdgesLocal {
					t.Errorf("rank %d: tcp tiles/cells/sent/recv/local %d/%d/%d/%d/%d != inmem %d/%d/%d/%d/%d", r,
						got.TilesExecuted, got.CellsComputed, got.EdgesSentRemote, got.EdgesRecvRemote, got.EdgesLocal,
						want.TilesExecuted, want.CellsComputed, want.EdgesSentRemote, want.EdgesRecvRemote, want.EdgesLocal)
				}
				if res.Value != ref.Value {
					t.Errorf("rank %d: Value tcp %.17g != inmem %.17g", r, res.Value, ref.Value)
				}
				if res.Max != ref.Max && !(math.IsNaN(res.Max) && math.IsNaN(ref.Max)) {
					t.Errorf("rank %d: Max tcp %.17g != inmem %.17g", r, res.Max, ref.Max)
				}
				if res.Messages != ref.Messages || res.Elems != ref.Elems {
					t.Errorf("rank %d: traffic tcp %d msgs/%d elems != inmem %d/%d",
						r, res.Messages, res.Elems, ref.Messages, ref.Elems)
				}
			}
			got := results[0].Value
			if p.UseMax {
				got = results[0].Max
			}
			if got != serial {
				t.Errorf("distributed %.17g != serial reference %.17g", got, serial)
			}
		})
	}
}

// TestDprunDistributedSmoke builds cmd/dprun and runs a real
// two-OS-process distributed bandit2 job through the -launch
// convenience forker, checking both processes agree with the serial
// reference.
func TestDprunDistributedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning test in -short mode")
	}
	bin := buildDprunBinary(t)
	p, err := problems.Get("bandit2")
	if err != nil {
		t.Fatal(err)
	}
	serial := p.Serial(p.DefaultParams)

	cmd := exec.Command(bin, "-problem", "bandit2", "-distributed", "-launch", "2", "-threads", "2", "-check")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("dprun -distributed -launch 2: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "OK (bit-identical)") {
		t.Errorf("output lacks serial-reference check (serial value %.17g):\n%s", serial, text)
	}
}

// TestDprunSupervisorRecovery is the OS-process fault-tolerance smoke:
// dprun's supervisor launches two ranks with crash injection in rank 1,
// reaps the dead child, restarts it with -resume/-rejoin, and the job
// must still finish bit-identical to the serial reference with exit
// status 0. A second run without a checkpoint directory must instead
// propagate the crash as a non-zero exit with the child's stderr tail.
func TestDprunSupervisorRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning test in -short mode")
	}
	bin := buildDprunBinary(t)

	t.Run("recovers", func(t *testing.T) {
		cmd := exec.Command(bin, "-problem", "bandit2", "-distributed", "-launch", "2", "-threads", "2",
			"-ckpt-dir", t.TempDir(), "-ckpt-every", "8", "-kill-rank", "1", "-crash-after-tiles", "20",
			"-stats", "-check")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("supervised recovery run: %v\n%s", err, out)
		}
		text := string(out)
		for _, want := range []string{"OK (bit-identical)", "recovered after", "injected crash after 20 tiles"} {
			if !strings.Contains(text, want) {
				t.Errorf("output lacks %q:\n%s", want, text)
			}
		}
	})

	t.Run("propagates-failure", func(t *testing.T) {
		cmd := exec.Command(bin, "-problem", "bandit2", "-distributed", "-launch", "2", "-threads", "2",
			"-kill-rank", "1", "-crash-after-tiles", "20")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("unrecoverable crash exited 0:\n%s", out)
		}
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run failed to start: %v", err)
		}
		if code := ee.ExitCode(); code == 0 {
			t.Errorf("exit code = %d, want non-zero", code)
		}
		text := string(out)
		for _, want := range []string{"supervisor: rank 1 failed", "injected crash after 20 tiles"} {
			if !strings.Contains(text, want) {
				t.Errorf("output lacks %q:\n%s", want, text)
			}
		}
	})
}

// TestDprunMalformedLaunch: a launch whose flags cannot describe one
// job fails instead of running a different one. Every rank reads the
// same flags, so a fault-injection or leave threshold that names no
// rank is a usage error, and an initial member count outside [1, N]
// fails in the engine's member check on every rank. An in-process run
// (local) cannot crash one rank alone, so naming one is a usage error.
func TestDprunMalformedLaunch(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning test in -short mode")
	}
	bin := buildDprunBinary(t)
	for _, tc := range []struct {
		name  string
		args  []string
		want  string
		local bool
	}{
		{"crash-without-kill-rank", []string{"-crash-after-tiles", "20"}, "-crash-after-tiles needs -kill-rank", false},
		{"kill-rank-in-process", []string{"-nodes", "2", "-crash-after-tiles", "5", "-kill-rank", "7"}, "-kill-rank needs -distributed", true},
		{"leave-without-leave-rank", []string{"-elastic", "-elastic-leave-after", "4"}, "-elastic-leave-after needs -leave-rank", false},
		{"initial-above-world", []string{"-elastic", "-elastic-initial", "3"}, "elastic member rank 2 out of range [0,2)", false},
		{"initial-zero", []string{"-elastic", "-elastic-initial", "0"}, "must include rank 0", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := []string{"-problem", "bandit2", "-params", "20"}
			if !tc.local {
				args = append(args, "-distributed", "-launch", "2")
			}
			args = append(args, tc.args...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			if _, ok := err.(*exec.ExitError); !ok {
				t.Fatalf("dprun %s: got %v, want a non-zero exit\n%s", strings.Join(args, " "), err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}
