// Package obs is the observability layer of the hybrid runtime: a
// low-overhead tile-lifecycle tracer, aggregate runtime metrics, and a
// critical-path analyzer over recorded traces.
//
// The paper's evaluation (Figures 4, 6 and 7; the Section VI-C tile and
// buffer sweeps) is entirely about where time and memory go inside the
// generated programs. End-of-run counters say *that* a configuration is
// slow; the tracer says *why*: per-worker timelines of tile readiness,
// unpack, kernel, pack, edge traffic, send-buffer stalls and idle gaps,
// exportable as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing) and as a Prometheus text-exposition snapshot.
//
// Both the real runtime (dpgen/internal/engine) and the cluster
// simulator (dpgen/internal/simsched) emit the same event schema, so a
// real run and its modeled counterpart can be diffed timeline to
// timeline.
//
// Design constraints:
//
//   - When no Tracer is attached, the instrumentation in the runtime
//     must compile down to one nil check per event site.
//   - Each (node, lane) timeline is written by a single goroutine, so
//     Lane.Emit takes no locks: it writes into a fixed-capacity ring
//     buffer. Lane registration (once per goroutine) takes a mutex.
//   - Timestamps are int64 nanoseconds from the trace origin: the
//     tracer's creation time for real runs, t=0 for simulated runs.
package obs

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind identifies a tile-lifecycle event.
type Kind uint8

const (
	// KReady marks the instant a tile's last dependence edge arrived
	// and it entered the ready queue.
	KReady Kind = iota
	// KPop marks the instant a worker claimed the tile for execution.
	KPop
	// KUnpack spans unpacking the tile's received edges into the tile
	// buffer's ghost shell.
	KUnpack
	// KKernel spans the kernel execution over the tile's cells.
	KKernel
	// KPack spans packing and delivering the tile's outgoing edges, one
	// per finished tile. It encloses the tile's KStall spans, and on the
	// engine its KSend spans too, so pack time counts each send and
	// stall once (NodeMetrics.BusySeconds relies on it).
	KPack
	// KSend spans one remote edge send; Val is the element count. The
	// engine's lies inside its tile's KPack span and encloses the send's
	// KStall; the simulator's is the modelled wire time, which may
	// outlast the pack span.
	KSend
	// KRecv marks one remote edge arrival; Val is the element count.
	KRecv
	// KStall spans time a worker was blocked in a send on exhausted
	// send (or destination receive) buffers — the Section VI-C effect.
	// It lies inside its tile's KPack span on its lane.
	KStall
	// KIdle spans time a worker waited with no ready tile.
	KIdle
	// KPending is a counter sample of the node's buffered pending
	// edges (the Figure 4 quantity), taken at tile completion; Val is
	// the count.
	KPending
	// KCheckpoint spans one fault-tolerance checkpoint — the cut, the
	// encode and the file write; Val is the encoded size in bytes.
	KCheckpoint
	// KRecover spans restoring a rank's state from a checkpoint at
	// resume; Val is the number of buffered edges replayed.
	KRecover
	// KHeartbeatMiss samples the transport's cumulative heartbeat-miss
	// count (peers silent past one heartbeat interval); Val is the
	// count.
	KHeartbeatMiss
	// KPeerRestart samples the transport's cumulative count of peers
	// that died and successfully rejoined; Val is the count.
	KPeerRestart
	// KPeerDown marks the instant the transport declared a peer dead
	// (heartbeat silence past the miss threshold or a hard connection
	// error); Val is the peer rank.
	KPeerDown
	// KPark marks one send parked against a down peer for later replay;
	// Val is the peer rank.
	KPark
	// KRejoin marks the instant a restarted peer re-established its
	// connection; Val is the peer rank.
	KRejoin
	// KReplay marks the completion of retained-frame replay to a
	// rejoined peer; Val is the number of frames replayed.
	KReplay
	// KQueueDepth is a counter sample of the node's ready-queue depth
	// (tiles queued across the worker shards), taken at tile
	// completion; Val is the depth. KPop's Val distinguishes how the
	// queues drain: 1 for a tile stolen from another worker's shard, 0
	// for a local pop.
	KQueueDepth
	// KEpoch marks a membership view change taking effect on this node
	// (elastic runs); Val is the new epoch number.
	KEpoch
	// KMigrateOut marks the completion of one outgoing migration blob —
	// unexecuted tiles this node no longer owns, shipped to their new
	// owner; Val is the number of tiles in the blob.
	KMigrateOut
	// KMigrateIn marks the application of one incoming migration blob;
	// Val is the number of tiles absorbed.
	KMigrateIn
	kindCount
)

var kindNames = [kindCount]string{
	"ready", "pop", "unpack", "kernel", "pack",
	"send", "recv", "stall", "idle", "pending_edges",
	"checkpoint", "recover", "heartbeat_miss", "peer_restart",
	"peer_down", "park", "rejoin", "replay", "queue_depth",
	"epoch", "migrate_out", "migrate_in",
}

// String returns the kind's wire name (the "k" field of the JSONL
// trace format).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString inverts Kind.String; ok is false for unknown names.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Durable reports whether events of this kind carry a duration (they
// render as complete spans in the Chrome trace; the rest are instants
// or counters).
func (k Kind) Durable() bool {
	switch k {
	case KUnpack, KKernel, KPack, KSend, KStall, KIdle, KCheckpoint, KRecover:
		return true
	}
	return false
}

// Event is one timeline record.
type Event struct {
	Kind  Kind
	Node  int32
	Lane  int32
	Start int64  // ns from the trace origin
	Dur   int64  // ns; 0 for instant and counter events
	Tile  string // tile coordinates (TileID format); "" if not tile-scoped
	Dep   int32  // tile-dependence index for edge events; -1 otherwise
	Val   int64  // payload: elements for edge events, count for KPending
}

// End returns Start + Dur.
func (e Event) End() int64 { return e.Start + e.Dur }

// TileID formats tile coordinates as a stable, comparable identifier
// ("3,0,1"). Both the engine and the simulator use it, so traces from
// the two sources are joinable on tile identity.
func TileID(t []int64) string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(v, 10))
	}
	return b.String()
}

// ParseTileID inverts TileID.
func ParseTileID(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	t := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, err
		}
		t[i] = v
	}
	return t, nil
}

// DefaultLaneCap is the default per-lane ring capacity. At roughly five
// events per tile, it holds the full lifecycle of ~13k tiles per worker
// before the ring starts overwriting its oldest records.
const DefaultLaneCap = 1 << 16

// Tracer collects per-lane timelines. Create one per run and attach it
// via the runtime's Config; it is not reusable across runs.
type Tracer struct {
	start   time.Time
	laneCap int

	mu    sync.Mutex
	lanes []*Lane
}

// NewTracer creates a tracer with the default per-lane capacity.
func NewTracer() *Tracer { return NewTracerCap(DefaultLaneCap) }

// NewTracerCap creates a tracer whose per-lane ring buffers hold at
// most perLane events; older events are overwritten (and counted as
// dropped) beyond that.
func NewTracerCap(perLane int) *Tracer {
	if perLane < 1 {
		perLane = 1
	}
	return &Tracer{start: time.Now(), laneCap: perLane}
}

// Now returns nanoseconds since the trace origin (monotonic).
func (t *Tracer) Now() int64 { return int64(time.Since(t.start)) }

// Origin returns the trace origin: the wall-clock time event timestamp
// zero corresponds to. Cross-rank trace merging aligns per-rank traces
// by shifting each trace's origin onto rank 0's clock.
func (t *Tracer) Origin() time.Time { return t.start }

// At converts an absolute time to trace-origin nanoseconds.
func (t *Tracer) At(tm time.Time) int64 { return int64(tm.Sub(t.start)) }

// Lane registers (or returns) the timeline for (node, lane). Each lane
// must be written by a single goroutine; call once per goroutine and
// keep the handle.
func (t *Tracer) Lane(node, lane int, name string) *Lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lanes {
		if l.node == int32(node) && l.lane == int32(lane) {
			return l
		}
	}
	initial := t.laneCap
	if initial > 1024 {
		initial = 1024 // grown on demand up to laneCap
	}
	l := &Lane{
		tr:   t,
		node: int32(node),
		lane: int32(lane),
		name: name,
		buf:  make([]Event, initial),
	}
	t.lanes = append(t.lanes, l)
	return l
}

// Lane is one single-writer timeline: all events of one worker,
// receiver or simulated core.
type Lane struct {
	tr   *Tracer
	node int32
	lane int32
	name string
	buf  []Event // ring
	n    uint64  // total events emitted
}

// Now returns nanoseconds since the trace origin.
func (l *Lane) Now() int64 { return l.tr.Now() }

// At converts an absolute time to trace-origin nanoseconds.
func (l *Lane) At(tm time.Time) int64 { return l.tr.At(tm) }

// Emit appends one event, stamping the lane identity. Not safe for
// concurrent use on the same lane. The backing buffer grows on demand
// up to the tracer's per-lane capacity and only then starts behaving
// as a ring, so short runs never pay for the full capacity.
func (l *Lane) Emit(e Event) {
	e.Node = l.node
	e.Lane = l.lane
	if l.n == uint64(len(l.buf)) && len(l.buf) < l.tr.laneCap {
		grown := 2 * len(l.buf)
		if grown > l.tr.laneCap {
			grown = l.tr.laneCap
		}
		nb := make([]Event, grown)
		copy(nb, l.buf)
		l.buf = nb
	}
	l.buf[l.n%uint64(len(l.buf))] = e
	l.n++
}

// Span is shorthand for a duration event from start (ns) to now.
func (l *Lane) Span(k Kind, tile string, dep int32, val int64, start int64) {
	l.Emit(Event{Kind: k, Start: start, Dur: l.Now() - start, Tile: tile, Dep: dep, Val: val})
}

// Instant is shorthand for a zero-duration event at now.
func (l *Lane) Instant(k Kind, tile string, dep int32, val int64) {
	l.Emit(Event{Kind: k, Start: l.Now(), Tile: tile, Dep: dep, Val: val})
}

// LaneInfo describes one timeline in a snapshot.
type LaneInfo struct {
	Node    int32  `json:"node"`
	Lane    int32  `json:"lane"`
	Name    string `json:"name"`
	Dropped uint64 `json:"dropped"` // events lost to ring overwrite
}

// TraceMeta carries the per-rank clock-alignment metadata a distributed
// run stamps into each trace file. It is what lets MergeRanks place all
// ranks' events on rank 0's timeline: an event at Start ns in this
// trace happened at wall time OriginUnixNs + Start on the local clock,
// which is OriginUnixNs + ClockOffsetNs + Start on rank 0's clock.
type TraceMeta struct {
	// Rank is the MPI rank that recorded the trace; -1 for a merged
	// trace.
	Rank int `json:"rank"`
	// Ranks is the world size of the run.
	Ranks int `json:"ranks"`
	// OriginUnixNs is the trace origin (Tracer.Origin) as Unix
	// nanoseconds on the recording rank's local clock.
	OriginUnixNs int64 `json:"originUnixNs"`
	// ClockOffsetNs is the estimated offset of rank 0's clock relative
	// to this rank's (rank0 = local + offset), from the ping-pong
	// estimation during the transport handshake. Zero on rank 0.
	ClockOffsetNs int64 `json:"clockOffsetNs"`
	// ClockRTTNs is the round-trip time of the min-RTT probe the offset
	// was taken from; the estimation error is bounded by ClockRTTNs/2.
	ClockRTTNs int64 `json:"clockRttNs"`
	// Aligned is true once all event timestamps have been shifted onto
	// the shared run timeline (the output of MergeRanks).
	Aligned bool `json:"aligned,omitempty"`
}

// Flow is one cross-rank message arrow: a remote dependence edge leaving
// a producer rank's send span and arriving at a consumer rank's receive
// instant. Flows are synthesized at merge time by pairing KSend and
// KRecv events on (Tile, Dep) identity and render as Perfetto flow
// arrows.
type Flow struct {
	// ID is the flow's identity in the Chrome trace (unique per trace,
	// starting at 1).
	ID int64 `json:"id"`
	// Tile and Dep identify the dependence edge: the consumer tile and
	// the index of the dependence that the message satisfies.
	Tile string `json:"tile"`
	Dep  int32  `json:"dep"`
	// FromNode/FromLane/FromTS locate the producer's send event
	// (aligned ns); ToNode/ToLane/ToTS the consumer's receive event.
	FromNode int32 `json:"fromNode"`
	FromLane int32 `json:"fromLane"`
	FromTS   int64 `json:"fromTs"`
	ToNode   int32 `json:"toNode"`
	ToLane   int32 `json:"toLane"`
	ToTS     int64 `json:"toTs"`
	// Elems is the element count of the edge payload.
	Elems int64 `json:"elems"`
}

// LatencyNs returns the send-start-to-arrival latency of the flow on
// the aligned timeline, clamped at zero (clock-offset error can make a
// very fast edge appear to arrive before it was sent).
func (f Flow) LatencyNs() int64 {
	if l := f.ToTS - f.FromTS; l > 0 {
		return l
	}
	return 0
}

// Trace is an immutable snapshot of a tracer: all surviving events in
// global start-time order.
type Trace struct {
	Events []Event
	Lanes  []LaneInfo
	// Meta is the clock-alignment metadata of a distributed run; nil
	// for single-process and simulated traces.
	Meta *TraceMeta
	// Flows are the cross-rank message arrows of a merged trace (see
	// MergeRanks); empty otherwise.
	Flows []Flow
}

// Snapshot collects the current contents of every lane. Call it only
// after the traced run has finished (lane writers stopped).
func (t *Tracer) Snapshot() *Trace {
	t.mu.Lock()
	lanes := append([]*Lane(nil), t.lanes...)
	t.mu.Unlock()
	tr := &Trace{}
	for _, l := range lanes {
		cap64 := uint64(len(l.buf))
		info := LaneInfo{Node: l.node, Lane: l.lane, Name: l.name}
		if l.n > cap64 {
			info.Dropped = l.n - cap64
			head := l.n % cap64
			tr.Events = append(tr.Events, l.buf[head:]...)
			tr.Events = append(tr.Events, l.buf[:head]...)
		} else {
			tr.Events = append(tr.Events, l.buf[:l.n]...)
		}
		tr.Lanes = append(tr.Lanes, info)
	}
	sort.SliceStable(tr.Events, func(i, j int) bool {
		return tr.Events[i].Start < tr.Events[j].Start
	})
	sort.Slice(tr.Lanes, func(i, j int) bool {
		if tr.Lanes[i].Node != tr.Lanes[j].Node {
			return tr.Lanes[i].Node < tr.Lanes[j].Node
		}
		return tr.Lanes[i].Lane < tr.Lanes[j].Lane
	})
	return tr
}

// Span returns the earliest start and latest end over all events; both
// zero when the trace is empty.
func (tr *Trace) Span() (start, end int64) {
	if len(tr.Events) == 0 {
		return 0, 0
	}
	start = tr.Events[0].Start
	end = start
	for _, e := range tr.Events {
		if e.Start < start {
			start = e.Start
		}
		if e.End() > end {
			end = e.End()
		}
	}
	return start, end
}

// Makespan returns the trace's end-to-end wall time.
func (tr *Trace) Makespan() time.Duration {
	s, e := tr.Span()
	return time.Duration(e - s)
}

// Dropped returns the total events lost to ring overwrite.
func (tr *Trace) Dropped() uint64 {
	var d uint64
	for _, l := range tr.Lanes {
		d += l.Dropped
	}
	return d
}
