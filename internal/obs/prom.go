// Aggregate runtime metrics derived from a trace, exported in the
// Prometheus text exposition format (version 0.0.4). This is the
// compact counterpart of the full timeline: what a scrape endpoint or a
// benchmark harness stores per run.

package obs

import (
	"io"
	"sort"
)

// NodeMetrics are the per-node aggregates of one traced run.
type NodeMetrics struct {
	Node             int32   `json:"node"`
	TilesExecuted    int64   `json:"tiles_executed"`
	KernelSeconds    float64 `json:"kernel_seconds"`
	UnpackSeconds    float64 `json:"unpack_seconds"`
	PackSeconds      float64 `json:"pack_seconds"`
	IdleSeconds      float64 `json:"idle_seconds"`
	SendStallSeconds float64 `json:"send_stall_seconds"`
	EdgesSent        int64   `json:"edges_sent"`
	EdgesRecv        int64   `json:"edges_recv"`
	ElemsSent        int64   `json:"elems_sent"`
	// ElemsRecv and BytesRecv are the receive-side counterparts of
	// ElemsSent/BytesSent, folded from KRecv events.
	ElemsRecv int64 `json:"elems_recv"`
	BytesRecv int64 `json:"bytes_recv"`
	// BytesSent is the payload volume of sent edges (8 bytes per
	// float64 element). It is derived from the same KSend trace events
	// on every transport; the TCP transport additionally counts exact
	// frame bytes (tcp.Transport.Bytes), which exceed this figure by
	// the frame and metadata overhead documented in docs/TRANSPORT.md.
	BytesSent        int64 `json:"bytes_sent"`
	PendingEdgesPeak int64 `json:"pending_edges_peak"`
	// Steals and LocalPops split tile claims by origin, folded from KPop
	// events (Val 1 = taken from another worker's shard, 0 = the popping
	// worker's own). QueueDepthPeak is the highest sampled ready-queue
	// depth (KQueueDepth events) across the node's shards.
	Steals         int64  `json:"steals"`
	LocalPops      int64  `json:"local_pops"`
	QueueDepthPeak int64  `json:"queue_depth_peak"`
	EventsDropped  uint64 `json:"events_dropped"`
	// CheckpointBytes is the total encoded size of fault-tolerance
	// checkpoints written (KCheckpoint events); Checkpoints counts them.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	Checkpoints     int64 `json:"checkpoints"`
	// HeartbeatMisses and PeerRestarts are the transport's recovery
	// counters, sampled at the end of a distributed run (KHeartbeatMiss
	// / KPeerRestart events carry the cumulative value).
	HeartbeatMisses int64 `json:"heartbeat_misses"`
	PeerRestarts    int64 `json:"peer_restarts"`
}

// BusySeconds is the node's worker time spent on tiles: kernel +
// unpack + pack − send stall. A send stall is nested in its send and the
// send in its tile's pack span (KPack ⊃ KSend ⊃ KStall, on the engine
// and the simulator alike), so pack time already holds every send and
// stall once: subtracting the stall leaves the work.
func (nm NodeMetrics) BusySeconds() float64 {
	return nm.KernelSeconds + nm.UnpackSeconds + nm.PackSeconds - nm.SendStallSeconds
}

// Metrics are the whole-run aggregates.
type Metrics struct {
	MakespanSeconds float64       `json:"makespan_seconds"`
	Nodes           []NodeMetrics `json:"nodes"`
	// EdgeLatency is the distribution of cross-rank edge latencies from
	// the merged trace's flow events (dp_edge_latency_seconds); nil when
	// the trace has no flows.
	EdgeLatency *HistogramSnapshot `json:"edge_latency,omitempty"`
}

// Metrics folds the trace into per-node aggregates.
func (tr *Trace) Metrics() *Metrics {
	m := &Metrics{MakespanSeconds: tr.Makespan().Seconds()}
	byNode := map[int32]*NodeMetrics{}
	get := func(node int32) *NodeMetrics {
		nm := byNode[node]
		if nm == nil {
			nm = &NodeMetrics{Node: node}
			byNode[node] = nm
		}
		return nm
	}
	for _, e := range tr.Events {
		nm := get(e.Node)
		sec := float64(e.Dur) / 1e9
		switch e.Kind {
		case KKernel:
			nm.TilesExecuted++
			nm.KernelSeconds += sec
		case KUnpack:
			nm.UnpackSeconds += sec
		case KPack:
			nm.PackSeconds += sec
		case KIdle:
			nm.IdleSeconds += sec
		case KStall:
			nm.SendStallSeconds += sec
		case KSend:
			nm.EdgesSent++
			nm.ElemsSent += e.Val
			nm.BytesSent += 8 * e.Val
		case KRecv:
			nm.EdgesRecv++
			nm.ElemsRecv += e.Val
			nm.BytesRecv += 8 * e.Val
		case KPending:
			if e.Val > nm.PendingEdgesPeak {
				nm.PendingEdgesPeak = e.Val
			}
		case KPop:
			if e.Val == 1 {
				nm.Steals++
			} else {
				nm.LocalPops++
			}
		case KQueueDepth:
			if e.Val > nm.QueueDepthPeak {
				nm.QueueDepthPeak = e.Val
			}
		case KCheckpoint:
			nm.Checkpoints++
			nm.CheckpointBytes += e.Val
		case KHeartbeatMiss:
			if e.Val > nm.HeartbeatMisses {
				nm.HeartbeatMisses = e.Val
			}
		case KPeerRestart:
			if e.Val > nm.PeerRestarts {
				nm.PeerRestarts = e.Val
			}
		}
	}
	for _, l := range tr.Lanes {
		get(l.Node).EventsDropped += l.Dropped
	}
	for _, nm := range byNode {
		m.Nodes = append(m.Nodes, *nm)
	}
	sort.Slice(m.Nodes, func(i, j int) bool { return m.Nodes[i].Node < m.Nodes[j].Node })
	if len(tr.Flows) > 0 {
		h := NewHistogram()
		for _, fl := range tr.Flows {
			h.ObserveNs(fl.LatencyNs())
		}
		snap := h.Snapshot()
		m.EdgeLatency = &snap
	}
	return m
}

// nodeFamilies are the per-node families, one sample per node.
var nodeFamilies = []struct {
	Family
	val func(nm *NodeMetrics) any
}{
	{Counter("dp_tiles_executed_total", "Tiles executed (kernel events) per node."), func(n *NodeMetrics) any { return n.TilesExecuted }},
	{Counter("dp_kernel_seconds_total", "Seconds spent in the user kernel per node."), func(n *NodeMetrics) any { return n.KernelSeconds }},
	{Counter("dp_unpack_seconds_total", "Seconds spent unpacking received edges per node."), func(n *NodeMetrics) any { return n.UnpackSeconds }},
	{Counter("dp_pack_seconds_total", "Seconds spent packing and delivering outgoing edges per node."), func(n *NodeMetrics) any { return n.PackSeconds }},
	{Counter("dp_idle_seconds_total", "Seconds workers waited with no ready tile per node."), func(n *NodeMetrics) any { return n.IdleSeconds }},
	{Counter("dp_send_stall_seconds_total", "Seconds workers blocked in sends on exhausted buffers per node."), func(n *NodeMetrics) any { return n.SendStallSeconds }},
	{Counter("dp_edges_sent_total", "Remote edge messages sent per node."), func(n *NodeMetrics) any { return n.EdgesSent }},
	{Counter("dp_edges_recv_total", "Remote edge messages received per node."), func(n *NodeMetrics) any { return n.EdgesRecv }},
	{Counter("dp_edge_elems_sent_total", "Float64 elements sent in remote edges per node."), func(n *NodeMetrics) any { return n.ElemsSent }},
	{Counter("dp_edge_bytes_sent_total", "Payload bytes sent in remote edges per node (8 per element; excludes framing)."), func(n *NodeMetrics) any { return n.BytesSent }},
	{Counter("dp_edge_elems_recv_total", "Float64 elements received in remote edges per node."), func(n *NodeMetrics) any { return n.ElemsRecv }},
	{Counter("dp_edge_bytes_recv_total", "Payload bytes received in remote edges per node (8 per element; excludes framing)."), func(n *NodeMetrics) any { return n.BytesRecv }},
	{Gauge("dp_pending_edges_peak", "Peak sampled pending-edge count per node (Figure 4 quantity)."), func(n *NodeMetrics) any { return n.PendingEdgesPeak }},
	{Counter("dp_steals_total", "Tiles claimed from another worker's ready-queue shard, per node."), func(n *NodeMetrics) any { return n.Steals }},
	{Counter("dp_local_pops_total", "Tiles claimed from the popping worker's own shard, per node."), func(n *NodeMetrics) any { return n.LocalPops }},
	{Gauge("dp_ready_queue_depth_peak", "Peak sampled ready-queue depth across a node's shards."), func(n *NodeMetrics) any { return n.QueueDepthPeak }},
	{Counter("dp_trace_events_dropped_total", "Trace events lost to ring-buffer overwrite per node."), func(n *NodeMetrics) any { return n.EventsDropped }},
	{Counter("dp_checkpoint_bytes_total", "Bytes written to fault-tolerance checkpoints per node."), func(n *NodeMetrics) any { return n.CheckpointBytes }},
	{HeartbeatMisses, func(n *NodeMetrics) any { return n.HeartbeatMisses }},
	{PeerRestarts, func(n *NodeMetrics) any { return n.PeerRestarts }},
}

// WritePrometheus writes the metrics in the Prometheus text exposition
// format, every per-node sample labelled node="N".
func (m *Metrics) WritePrometheus(w io.Writer) error {
	e := Expo{W: w}
	e.Family(Gauge("dp_run_makespan_seconds", "End-to-end traced run time."))
	e.Sample("dp_run_makespan_seconds", "", m.MakespanSeconds)
	for _, f := range nodeFamilies {
		e.Family(f.Family)
		for i := range m.Nodes {
			e.Sample(f.Name, Label("node", m.Nodes[i].Node), f.val(&m.Nodes[i]))
		}
	}
	if m.EdgeLatency != nil {
		e.Histogram(EdgeLatency, "", *m.EdgeLatency)
	}
	return e.Err()
}
