package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

// TestChildArgs pins the one-configuration launch: the supervisor
// forwards every explicitly set flag except the launch plumbing and the
// per-process outputs, two ranks' command lines differ only in -rank
// and the rank-suffixed outputs, and a restart adds only -resume
// -rejoin.
func TestChildArgs(t *testing.T) {
	fs := flag.NewFlagSet("dprun", flag.ContinueOnError)
	fs.String("problem", "", "")
	fs.Bool("distributed", false, "")
	fs.Int("launch", 0, "")
	fs.Int("threads", 1, "")
	fs.Int("kill-rank", -1, "")
	fs.Int64("crash-after-tiles", 0, "")
	fs.Bool("elastic", false, "")
	fs.Int("elastic-initial", 0, "")
	fs.String("trace", "", "")
	fs.String("stats-json", "", "")
	fs.String("obs-addr", "", "")
	if err := fs.Parse([]string{
		"-problem", "lcs2", "-distributed", "-launch", "3", "-threads", "2",
		"-kill-rank", "1", "-crash-after-tiles", "20", "-elastic", "-elastic-initial", "2",
		"-trace", "t.json", "-stats-json", "s.json", "-obs-addr", "127.0.0.1:9000",
	}); err != nil {
		t.Fatal(err)
	}
	fwd := forwardFlags(fs)
	want := []string{"-crash-after-tiles=20", "-elastic=true", "-elastic-initial=2",
		"-kill-rank=1", "-problem=lcs2", "-threads=2"}
	if !slices.Equal(fwd, want) {
		t.Fatalf("forwarded %q, want %q", fwd, want)
	}

	lc := launchConfig{n: 3, traceOut: "t.json", statsJSON: "s.json", obsAddr: "127.0.0.1:9000", metricsOut: "m.prom"}
	peers := []string{"127.0.0.1:7000", "127.0.0.1:7001", "127.0.0.1:7002"}
	a0, a1 := lc.childArgs(fwd, peers, 0, false), lc.childArgs(fwd, peers, 1, false)
	if len(a0) != len(a1) {
		t.Fatalf("rank 0 argv %q and rank 1 argv %q differ in length", a0, a1)
	}
	var diffs int
	for i := range a0 {
		if a0[i] == a1[i] {
			continue
		}
		diffs++
		rankValue := i > 0 && a0[i-1] == "-rank" && a0[i] == "0" && a1[i] == "1"
		suffixed := strings.Contains(a0[i], ".rank0") && strings.ReplaceAll(a0[i], ".rank0", ".rank1") == a1[i]
		if !rankValue && !suffixed {
			t.Errorf("argv[%d]: rank 0 has %q, rank 1 %q: only -rank and rank-suffixed outputs may differ", i, a0[i], a1[i])
		}
	}
	if diffs != 4 { // -rank, -trace, -stats-json, -metrics-out
		t.Errorf("%d argv entries differ between ranks, want 4:\n%q\n%q", diffs, a0, a1)
	}
	for _, f := range fwd {
		if !slices.Contains(a0, f) {
			t.Errorf("argv %q lacks forwarded %q", a0, f)
		}
	}

	re := lc.childArgs(fwd, peers, 1, true)
	if !slices.Equal(re, append(a1, "-resume", "-rejoin")) {
		t.Errorf("restart argv %q, want rank 1's argv plus -resume -rejoin", re)
	}
}
