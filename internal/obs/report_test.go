package obs

import (
	"math"
	"testing"
	"time"
)

// TestBuildReportBusyCountsNestedSendOnce pins the busy rule on an
// engine-shaped trace: the pack span [0, 100µs] encloses a send [40, 90]
// that encloses its stall [40, 70], so the pack work is 70µs and busy
// time is kernel + unpack + 70µs. Counting the send beside the pack
// span (120µs of communication) would make the sending rank look busier
// than the equally loaded rank that sends nothing.
func TestBuildReportBusyCountsNestedSendOnce(t *testing.T) {
	us := int64(time.Microsecond)
	tr := &Trace{Events: []Event{
		// Rank 0 finishes tile "1" by packing it, then runs tile "2".
		{Kind: KPack, Node: 0, Start: 0, Dur: 100 * us, Tile: "1", Dep: -1},
		{Kind: KSend, Node: 0, Start: 40 * us, Dur: 50 * us, Tile: "0", Dep: 0, Val: 8},
		{Kind: KStall, Node: 0, Start: 40 * us, Dur: 30 * us, Tile: "1", Dep: 0},
		{Kind: KUnpack, Node: 0, Start: 100 * us, Dur: 30 * us, Tile: "2", Dep: -1},
		{Kind: KKernel, Node: 0, Start: 130 * us, Dur: 200 * us, Tile: "2", Dep: -1},
		// An equally loaded rank that sends nothing: 300µs of kernel.
		{Kind: KKernel, Node: 1, Start: 0, Dur: 300 * us, Tile: "3", Dep: -1},
	}}
	rep, err := BuildReport(tr, [][]int64{{1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ranks) != 2 {
		t.Fatalf("report covers %d ranks, want 2", len(rep.Ranks))
	}
	want := (30 + 200 + 70) * 1e-6
	for _, r := range rep.Ranks {
		if got := r.BusySeconds(); math.Abs(got-want) > 1e-12 {
			t.Errorf("rank %d busy = %v, want %v", r.Node, got, want)
		}
	}
	if math.Abs(rep.ImbalanceRatio-1) > 1e-9 {
		t.Errorf("imbalance ratio = %v, want 1 for two equally busy ranks", rep.ImbalanceRatio)
	}
}
