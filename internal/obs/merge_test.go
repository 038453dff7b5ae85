package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// synthRank builds a small synthetic single-rank trace: one worker lane
// with a kernel span per tile, plus optional send/recv edge events.
func synthRank(rank int, originNs, offsetNs int64, events []Event) *Trace {
	lanes := map[int32]bool{}
	for _, e := range events {
		lanes[e.Lane] = true
	}
	tr := &Trace{
		Events: append([]Event(nil), events...),
		Meta: &TraceMeta{
			Rank:          rank,
			Ranks:         2,
			OriginUnixNs:  originNs,
			ClockOffsetNs: offsetNs,
		},
	}
	for l := range lanes {
		tr.Lanes = append(tr.Lanes, LaneInfo{Node: int32(rank), Lane: l, Name: "worker"})
	}
	return tr
}

func TestMergeRanksAligns(t *testing.T) {
	// Rank 1's local clock runs 500ns behind rank 0's (offset +500):
	// its origin lands at 10_500 on the aligned timeline vs rank 0's
	// 10_000, so its events shift by +500 relative to rank 0's.
	r0 := synthRank(0, 10_000, 0, []Event{
		{Kind: KKernel, Node: 0, Lane: 0, Start: 0, Dur: 100, Tile: "0,0", Dep: -1},
		{Kind: KSend, Node: 0, Lane: 0, Start: 100, Dur: 10, Tile: "1,0", Dep: 0, Val: 8},
	})
	r1 := synthRank(1, 10_000, 500, []Event{
		{Kind: KRecv, Node: 1, Lane: 0, Start: 200, Dur: 0, Tile: "1,0", Dep: 0, Val: 8},
		{Kind: KKernel, Node: 1, Lane: 0, Start: 210, Dur: 100, Tile: "1,0", Dep: -1},
	})
	m, err := MergeRanks([]*Trace{r0, r1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Meta == nil || !m.Meta.Aligned || m.Meta.Ranks != 2 || m.Meta.Rank != -1 {
		t.Fatalf("merged meta = %+v", m.Meta)
	}
	if m.Meta.OriginUnixNs != 10_000 {
		t.Errorf("merged origin = %d, want 10000 (min aligned origin)", m.Meta.OriginUnixNs)
	}
	if len(m.Events) != 4 {
		t.Fatalf("merged %d events, want 4", len(m.Events))
	}
	// Rank 1's recv at local 200 must land at 200+500 = 700 aligned.
	var recv *Event
	for i := range m.Events {
		if m.Events[i].Kind == KRecv {
			recv = &m.Events[i]
		}
	}
	if recv == nil || recv.Start != 700 {
		t.Fatalf("recv event = %+v, want aligned start 700", recv)
	}
	for i := 1; i < len(m.Events); i++ {
		if m.Events[i].Start < m.Events[i-1].Start {
			t.Fatalf("events not globally sorted: %v", m.Events)
		}
	}
	if viol := VerifyMerged(m, true); len(viol) != 0 {
		t.Errorf("clean merge violates invariants: %v", viol)
	}
	if len(m.Flows) != 1 {
		t.Fatalf("flows = %v, want one send->recv pair", m.Flows)
	}
	f := m.Flows[0]
	if f.FromNode != 0 || f.ToNode != 1 || f.Tile != "1,0" || f.Dep != 0 {
		t.Errorf("flow endpoints = %+v", f)
	}
	if f.LatencyNs() != 600 {
		t.Errorf("flow latency = %d, want 600 (send@100 -> aligned recv@700)", f.LatencyNs())
	}
}

func TestMergeRanksEventCountPreserved(t *testing.T) {
	mk := func(rank int, n int) *Trace {
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = Event{Kind: KKernel, Node: int32(rank), Lane: 0, Start: int64(i * 10), Dur: 5, Dep: -1}
		}
		return synthRank(rank, int64(1000+rank*7), int64(rank*3), evs)
	}
	a, b := mk(0, 17), mk(1, 23)
	m, err := MergeRanks([]*Trace{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Events) != 40 {
		t.Errorf("merged %d events, want 40: merging must preserve every event", len(m.Events))
	}
}

func TestMergeRanksRejectsBadInputs(t *testing.T) {
	good := func() *Trace {
		return synthRank(0, 1000, 0, []Event{{Kind: KKernel, Node: 0, Lane: 0, Dur: 1, Dep: -1}})
	}
	t.Run("no-meta", func(t *testing.T) {
		tr := good()
		tr.Meta = nil
		if _, err := MergeRanks([]*Trace{tr}); err == nil {
			t.Error("merge accepted a trace without metadata")
		}
	})
	t.Run("duplicate-rank", func(t *testing.T) {
		if _, err := MergeRanks([]*Trace{good(), good()}); err == nil {
			t.Error("merge accepted two traces claiming rank 0")
		}
	})
	t.Run("already-merged", func(t *testing.T) {
		tr := good()
		tr.Meta.Aligned = true
		if _, err := MergeRanks([]*Trace{tr}); err == nil {
			t.Error("merge accepted an already-merged trace")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := MergeRanks(nil); err == nil {
			t.Error("merge accepted zero traces")
		}
	})
}

func TestVerifyMergedStrictness(t *testing.T) {
	// An orphaned send (its receive lost with a crashed incarnation)
	// breaks strict pairing but must pass the lenient recovery rules.
	r0 := synthRank(0, 1000, 0, []Event{
		{Kind: KSend, Node: 0, Lane: 0, Start: 0, Dur: 1, Tile: "1,0", Dep: 0},
		{Kind: KSend, Node: 0, Lane: 0, Start: 5, Dur: 1, Tile: "2,0", Dep: 0},
	})
	r1 := synthRank(1, 1000, 0, []Event{
		{Kind: KRecv, Node: 1, Lane: 0, Start: 10, Tile: "1,0", Dep: 0},
	})
	m, err := MergeRanks([]*Trace{r0, r1})
	if err != nil {
		t.Fatal(err)
	}
	if viol := VerifyMerged(m, true); len(viol) == 0 {
		t.Error("strict verification missed the orphaned send")
	}
	if viol := VerifyMerged(m, false); len(viol) != 0 {
		t.Errorf("lenient verification rejected a recovery-shaped trace: %v", viol)
	}
}

func TestChromeFlowAndMetaRoundTrip(t *testing.T) {
	r0 := synthRank(0, 5_000, 0, []Event{
		{Kind: KKernel, Node: 0, Lane: 0, Start: 0, Dur: 1000, Tile: "0,0", Dep: -1},
		{Kind: KSend, Node: 0, Lane: 0, Start: 1000, Dur: 100, Tile: "1,0", Dep: 0, Val: 4},
	})
	r1 := synthRank(1, 5_100, -50, []Event{
		{Kind: KRecv, Node: 1, Lane: 0, Start: 2000, Tile: "1,0", Dep: 0, Val: 4},
		{Kind: KKernel, Node: 1, Lane: 0, Start: 2100, Dur: 900, Tile: "1,0", Dep: -1},
	})
	m, err := MergeRanks([]*Trace{r0, r1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta == nil || *got.Meta != *m.Meta {
		t.Errorf("meta round trip: got %+v, want %+v", got.Meta, m.Meta)
	}
	if len(got.Flows) != len(m.Flows) {
		t.Fatalf("flow round trip: got %d flows, want %d", len(got.Flows), len(m.Flows))
	}
	for i := range m.Flows {
		w, g := m.Flows[i], got.Flows[i]
		if g.ID != w.ID || g.Tile != w.Tile || g.FromNode != w.FromNode || g.ToNode != w.ToNode {
			t.Errorf("flow %d: got %+v, want %+v", i, g, w)
		}
		// Timestamps survive the float64-microsecond trip only to µs
		// precision.
		if d := g.ToTS - w.ToTS; d < -1000 || d > 1000 {
			t.Errorf("flow %d: recv ts drifted %dns through the round trip", i, d)
		}
	}
	if viol := VerifyMerged(got, true); len(viol) != 0 {
		t.Errorf("round-tripped trace violates invariants: %v", viol)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(1e-6, 10e-6, 100e-6) // bounds in seconds
	for _, ns := range []int64{500, 1500, 1500, 50_000, 2_000_000, -5} {
		h.ObserveNs(ns)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6 (negative clamps to zero, not dropped)", s.Count)
	}
	wantCounts := []int64{2, 2, 1, 1} // (-inf,1µs], (1,10], (10,100], +inf
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if q := s.Quantile(0.5); q != 10e-6 {
		t.Errorf("p50 = %v, want the 10µs bucket bound", q)
	}
	var buf bytes.Buffer
	e := Expo{W: &buf}
	if e.Histogram(Family{"dp_test_seconds", "histogram", "help text"}, `rank="1"`, s); e.Err() != nil {
		t.Fatal(e.Err())
	}
	out := buf.String()
	for _, want := range []string{
		`dp_test_seconds_bucket{rank="1",le="+Inf"} 6`,
		`dp_test_seconds_count{rank="1"} 6`,
		"# TYPE dp_test_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output lacks %q:\n%s", want, out)
		}
	}

	// Merging two snapshots with identical bounds sums all buckets.
	h2 := NewHistogram(1e-6, 10e-6, 100e-6)
	h2.ObserveNs(1500)
	m := s
	if err := m.Merge(h2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if m.Count != 7 || m.Counts[1] != 3 {
		t.Errorf("merged count = %d, bucket1 = %d; want 7 and 3", m.Count, m.Counts[1])
	}
}

func TestBuildReportOnMergedTrace(t *testing.T) {
	us := int64(time.Microsecond)
	r0 := synthRank(0, 1_000_000, 0, []Event{
		{Kind: KReady, Node: 0, Lane: 0, Start: 0, Tile: "0,0", Dep: -1},
		{Kind: KKernel, Node: 0, Lane: 0, Start: 0, Dur: 400 * us, Tile: "0,0", Dep: -1},
		{Kind: KSend, Node: 0, Lane: 0, Start: 400 * us, Dur: 20 * us, Tile: "1,0", Dep: 0, Val: 8},
	})
	r1 := synthRank(1, 1_000_000, 0, []Event{
		{Kind: KReady, Node: 1, Lane: 0, Start: 430 * us, Tile: "1,0", Dep: -1},
		{Kind: KRecv, Node: 1, Lane: 0, Start: 430 * us, Tile: "1,0", Dep: 0, Val: 8},
		{Kind: KKernel, Node: 1, Lane: 0, Start: 440 * us, Dur: 100 * us, Tile: "1,0", Dep: -1},
	})
	m, err := MergeRanks([]*Trace{r0, r1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildReport(m, [][]int64{{-1, 0}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ranks) != 2 {
		t.Fatalf("report covers %d ranks, want 2", len(rep.Ranks))
	}
	if rep.Flows != 1 {
		t.Errorf("report flows = %d, want 1", rep.Flows)
	}
	if rep.ImbalanceRatio <= 1 {
		t.Errorf("imbalance ratio = %v, want > 1 for an unbalanced run", rep.ImbalanceRatio)
	}
	if rep.CritPath == nil {
		t.Fatal("report lacks the critical path")
	}
	if cp, mk := rep.CritPath.CriticalPath, rep.CritPath.Makespan; cp > mk {
		t.Errorf("critical path %v exceeds makespan %v", cp, mk)
	}
	if len(rep.Stragglers) == 0 {
		t.Error("report lists no straggler tiles")
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"run report:", "load imbalance ratio", "critical path"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report text lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestCriticalPathBoundedUnderSkew is the clamping regression test: a
// maliciously wrong clock offset makes a receive appear long after (or
// before) its send, yet the computed critical path must never exceed
// the merged makespan.
func TestCriticalPathBoundedUnderSkew(t *testing.T) {
	us := int64(time.Microsecond)
	for _, skew := range []int64{-5000 * us, -200 * us, 0, 200 * us, 5000 * us} {
		r0 := synthRank(0, 1_000_000, 0, []Event{
			{Kind: KKernel, Node: 0, Lane: 0, Start: 0, Dur: 100 * us, Tile: "0,0", Dep: -1},
			{Kind: KSend, Node: 0, Lane: 0, Start: 100 * us, Dur: 10 * us, Tile: "1,0", Dep: 0},
		})
		r1 := synthRank(1, 1_000_000, skew, []Event{
			{Kind: KRecv, Node: 1, Lane: 0, Start: 120 * us, Tile: "1,0", Dep: 0},
			{Kind: KKernel, Node: 1, Lane: 0, Start: 130 * us, Dur: 100 * us, Tile: "1,0", Dep: -1},
		})
		m, err := MergeRanks([]*Trace{r0, r1})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := CriticalPath(m, [][]int64{{-1, 0}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.CriticalPath > rep.Makespan {
			t.Errorf("skew %dns: critical path %v exceeds makespan %v",
				skew, rep.CriticalPath, rep.Makespan)
		}
		if rep.CriticalPath < 0 {
			t.Errorf("skew %dns: negative critical path %v", skew, rep.CriticalPath)
		}
	}
}
