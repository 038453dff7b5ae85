// The run-wide report: per-rank busy, kernel, unpack, pack, stall and
// idle times, the load imbalance ratio, top-k straggler tiles and the
// cross-rank critical path, computed over a (merged) trace. This is the
// `dprun -report` analyzer — the evidence the paper's Figures 6 and 7
// discussion needs: which rank is the straggler, whether the slowdown is
// stall, idle or kernel time, and how close the run sits to its latency
// bound.

package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Straggler is one of the slowest tiles of the run: the tiles whose
// ready-to-done latency is largest, i.e. where the schedule lost the
// most time between an available tile and its completion.
type Straggler struct {
	// Tile is the tile id; Node the rank that executed it.
	Tile string `json:"tile"`
	Node int32  `json:"node"`
	// WaitSeconds is ready-to-claim latency, ExecSeconds claim-to-
	// kernel-end, TotalSeconds their sum.
	WaitSeconds  float64 `json:"wait_seconds"`
	ExecSeconds  float64 `json:"exec_seconds"`
	TotalSeconds float64 `json:"total_seconds"`
}

// RunReport is the full analyzer output.
type RunReport struct {
	// Metrics is the trace's per-node fold (Trace.Metrics): the
	// makespan, the per-node times and the edge-latency distribution.
	Metrics *Metrics `json:"metrics"`
	// Ranks are the report's rows, Metrics.Nodes: one per rank, ordered
	// by node id.
	Ranks []NodeMetrics `json:"-"`
	// ImbalanceRatio is max busy time over mean busy time across ranks
	// (1.0 = perfectly balanced); see NodeMetrics.BusySeconds.
	ImbalanceRatio float64 `json:"imbalance_ratio"`
	// CritPath is the (cross-rank) critical-path analysis.
	CritPath *PathReport `json:"-"`
	// Stragglers are the top-k tiles by ready-to-done latency.
	Stragglers []Straggler `json:"stragglers"`
	// Flows is the number of cross-rank message arrows in the trace.
	Flows int `json:"flows"`
}

// BuildReport computes the run report over a trace: its rows are the
// trace's Metrics, and the stragglers and the critical path read one
// per-tile index. offsets are the tile-space dependence offsets as for
// CriticalPath; topK bounds the straggler list (<=0 means 5).
func BuildReport(tr *Trace, offsets [][]int64, topK int) (*RunReport, error) {
	if topK <= 0 {
		topK = 5
	}
	m := tr.Metrics()
	rep := &RunReport{Metrics: m, Ranks: m.Nodes, Flows: len(tr.Flows)}
	var sumBusy, maxBusy float64
	for _, nm := range m.Nodes {
		busy := nm.BusySeconds()
		sumBusy += busy
		maxBusy = max(maxBusy, busy)
	}
	if sumBusy > 0 {
		rep.ImbalanceRatio = maxBusy * float64(len(m.Nodes)) / sumBusy
	}
	idx := indexTiles(tr)
	rep.Stragglers = idx.stragglers(topK)
	cp, err := idx.criticalPath(tr.Makespan(), offsets)
	if err != nil {
		return nil, err
	}
	rep.CritPath = cp
	return rep, nil
}

// stragglers returns the topK indexed tiles by ready-to-done latency.
func (idx tileIndex) stragglers(topK int) []Straggler {
	var out []Straggler
	for id, t := range idx {
		if t.seen&seenReady == 0 || t.seen&seenKernel == 0 {
			continue
		}
		claim := t.ready
		if t.seen&seenPop != 0 {
			claim = max(claim, t.pop)
		}
		out = append(out, Straggler{
			Tile:         id,
			Node:         t.node,
			WaitSeconds:  float64(claim-t.ready) / 1e9,
			ExecSeconds:  float64(t.kernelEnd-claim) / 1e9,
			TotalSeconds: float64(t.kernelEnd-t.ready) / 1e9,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalSeconds != out[j].TotalSeconds {
			return out[i].TotalSeconds > out[j].TotalSeconds
		}
		return out[i].Tile < out[j].Tile
	})
	return out[:min(topK, len(out))]
}

// WriteText renders the report for terminals.
func (rep *RunReport) WriteText(w io.Writer) error {
	m := rep.Metrics
	fmt.Fprintf(w, "run report: makespan %v, %d ranks, %d cross-rank edges\n",
		time.Duration(m.MakespanSeconds*1e9).Round(time.Microsecond), len(rep.Ranks), rep.Flows)
	fmt.Fprintf(w, "  %-6s %8s %12s %12s %12s %12s %12s %12s\n",
		"rank", "tiles", "busy", "kernel", "unpack", "pack", "stall", "idle")
	for _, nm := range rep.Ranks {
		fmt.Fprintf(w, "  %-6d %8d %12s %12s %12s %12s %12s %12s\n",
			nm.Node, nm.TilesExecuted, fmtSec(nm.BusySeconds()), fmtSec(nm.KernelSeconds),
			fmtSec(nm.UnpackSeconds), fmtSec(nm.PackSeconds), fmtSec(nm.SendStallSeconds), fmtSec(nm.IdleSeconds))
	}
	fmt.Fprintf(w, "  load imbalance ratio: %.3f (max busy / mean busy)\n", rep.ImbalanceRatio)
	if h := m.EdgeLatency; h != nil {
		fmt.Fprintf(w, "  edge latency: p50 <= %s, p95 <= %s, p99 <= %s over %d edges\n",
			fmtSec(h.Quantile(0.50)), fmtSec(h.Quantile(0.95)), fmtSec(h.Quantile(0.99)), h.Count)
	}
	if len(rep.Stragglers) > 0 {
		fmt.Fprintf(w, "  top straggler tiles (ready -> done):\n")
		for _, s := range rep.Stragglers {
			fmt.Fprintf(w, "    tile %-12s rank %-3d total %s (wait %s + exec %s)\n",
				s.Tile, s.Node, fmtSec(s.TotalSeconds), fmtSec(s.WaitSeconds), fmtSec(s.ExecSeconds))
		}
	}
	if rep.CritPath != nil {
		fmt.Fprintf(w, "  %s\n", rep.CritPath.String())
	}
	return nil
}

func fmtSec(s float64) string {
	return time.Duration(s * 1e9).Round(time.Microsecond).String()
}
