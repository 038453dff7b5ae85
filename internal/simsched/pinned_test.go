package simsched

import (
	"math"
	"slices"
	"testing"

	"dpgen/internal/sched"
)

// TestPinnedResults holds the model's outputs where they were before the
// simulator moved onto the shared scheduler heap, priority key and
// integer tile key (values captured at commit d9cf265): Makespan to the
// bit, and the traffic and buffering counts. EXPERIMENTS.md's figures
// are these numbers at other sizes, so a change here is a change there.
func TestPinnedResults(t *testing.T) {
	tl := bandit2Tiling(t, 6, []string{"s1", "f1"})
	for _, c := range []struct {
		name            string
		N               int64
		cfg             Config
		makespan        uint64 // math.Float64bits
		messages, elems int64
		peak            []int64
	}{
		{"n60-1x24-column", 60, Config{Nodes: 1, Cores: 24, Priority: sched.ColumnMajor},
			0x3f5ba7a94dcc1bdb, 0, 0, []int64{326}},
		{"n103-8x24-levelset", 103, Config{Nodes: 8, Cores: 24, Priority: sched.LevelSet},
			0x3f62a2ca112fd6d1, 4110, 667560, []int64{215, 272, 231, 217, 108, 230, 298, 156}},
		{"n60-4x24-reverse", 60, Config{Nodes: 4, Cores: 24, ReverseKey: true},
			0x3f4ddc389d08803a, 505, 66185, []int64{96, 133, 154, 79}},
		{"n60-4x24-fifo-cached", 60, Config{Nodes: 4, Cores: 24, Priority: sched.FIFO},
			0x3f4b70fa919da10c, 505, 66185, []int64{98, 131, 99, 85}},
	} {
		res, err := Simulate(tl, []int64{c.N}, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := math.Float64bits(res.Makespan); got != c.makespan {
			t.Errorf("%s: Makespan %v (%#x), pinned %v (%#x)", c.name,
				res.Makespan, got, math.Float64frombits(c.makespan), c.makespan)
		}
		if res.Messages != c.messages || res.Elems != c.elems {
			t.Errorf("%s: Messages %d Elems %d, pinned %d and %d", c.name, res.Messages, res.Elems, c.messages, c.elems)
		}
		if !slices.Equal(res.PeakPendingEdges, c.peak) {
			t.Errorf("%s: PeakPendingEdges %v, pinned %v", c.name, res.PeakPendingEdges, c.peak)
		}
	}
}
