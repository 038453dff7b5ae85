// Clock-offset estimation and the wire-level observability surface of
// the transport: per-peer frame/byte counters, the cross-rank edge
// latency histogram, and NTP-style ping-pong clock sync against rank 0.
//
// The sync runs right after mesh establishment (and again after a
// REJOIN): the rank sends CLOCKREQ carrying its local send time t0;
// rank 0 echoes it in CLOCKRESP together with its own aligned wall
// clock ts. On receipt at local time t1, rtt = t1 - t0 and the
// midpoint estimate is offset = ts - (t0 + rtt/2). The estimate from
// the minimum-RTT round is kept: its error is bounded by the
// asymmetry of the two path delays, which is at most rtt/2 — so the
// tightest round gives the tightest bound. Every rank then stamps
// outgoing DATA frames and trace metadata with local time + offset,
// placing the whole run on rank 0's timeline.

package tcp

import (
	"io"
	"time"

	"dpgen/internal/obs"
)

// clockResp is one decoded CLOCKRESP frame plus its local receive time.
type clockResp struct {
	echo   int64 // the t0 we sent, echoed back
	server int64 // responder's aligned unix nanos
	at     int64 // local unix nanos at receipt
}

// clockSample is one completed ping-pong round.
type clockSample struct {
	rtt    int64 // round-trip nanoseconds
	offset int64 // midpoint offset estimate: responder clock - local clock
}

// clockProbes is the number of ping-pong rounds of the clock-offset
// estimation. The estimate keeps the minimum-RTT round, so more probes
// tighten the rtt/2 error bound on a jittery link.
const clockProbes = 8

// pickClockOffset selects the estimate of the minimum-RTT sample —
// the round with the tightest rtt/2 error bound. ok is false for an
// empty sample set.
func pickClockOffset(samples []clockSample) (offset, rtt int64, ok bool) {
	for i, s := range samples {
		if i == 0 || s.rtt < rtt {
			offset, rtt, ok = s.offset, s.rtt, true
		}
	}
	return offset, rtt, ok
}

// syncClock runs clockProbes ping-pong rounds against rank 0
// and stores the min-RTT offset estimate. Best effort: on a stopped
// transport or all probes timing out it leaves the offset at zero and
// logs, rather than failing the run over degraded trace alignment.
//
// Both Dial and DialRejoin run it on a goroutine. It cannot be
// synchronous: peers whose Dial already returned send DATA (or, after
// a rejoin, replay retained history) immediately, and once that
// traffic exceeds the inbox capacity this endpoint's reader parks on
// delivery until the engine starts draining — which it won't, while
// Dial is still blocked in here. The parked reader would starve the
// clock responses queued behind the backlog and, under Recovery, the
// silence would trip the local heartbeat monitor into tearing the
// connection down. Until the sync completes, stampData marks outgoing
// frames unaligned (sendAt 0); clockDone closes when it has.
func (t *Transport) syncClock() {
	defer func() {
		t.clockReady.Store(true)
		close(t.clockDone)
	}()
	if t.rank == 0 || t.size == 1 || t.opts.DisableClockSync {
		return
	}
	pc := t.conn(0)
	if pc == nil {
		return
	}
	var samples []clockSample
	timeout := time.NewTimer(0)
	if !timeout.Stop() {
		<-timeout.C
	}
	defer timeout.Stop()
	for i := 0; i < clockProbes; i++ {
		t0 := time.Now().UnixNano()
		if err := pc.sendFrame(t, kClockReq, func(b []byte) []byte {
			return appendU64(b, uint64(t0))
		}); err != nil {
			t.opts.logf("tcp: rank %d: clock probe %d write failed: %v", t.rank, i, err)
			break
		}
		timeout.Reset(time.Second)
	wait:
		for {
			select {
			case r := <-t.clockCh:
				if r.echo != t0 {
					continue // response to an earlier, timed-out probe
				}
				rtt := r.at - t0
				if rtt < 0 {
					break wait // non-monotonic wall clock step; discard
				}
				samples = append(samples, clockSample{
					rtt:    rtt,
					offset: r.server - (t0 + rtt/2),
				})
				break wait
			case <-timeout.C:
				break wait
			case <-t.stop:
				if !timeout.Stop() {
					<-timeout.C
				}
				return
			}
		}
		if !timeout.Stop() {
			select {
			case <-timeout.C:
			default:
			}
		}
	}
	off, rtt, ok := pickClockOffset(samples)
	if !ok {
		t.opts.logf("tcp: rank %d: clock sync got no responses from rank 0; traces stay unaligned", t.rank)
		return
	}
	t.clockOff.Store(off)
	t.clockRTT.Store(rtt)
	t.opts.logf("tcp: rank %d: clock offset to rank 0: %s (min rtt %s over %d/%d probes)",
		t.rank, time.Duration(off), time.Duration(rtt), len(samples), clockProbes)
}

// alignedNow returns the local wall clock shifted onto rank 0's
// timeline by the estimated offset.
func (t *Transport) alignedNow() int64 {
	return time.Now().UnixNano() + t.clockOff.Load()
}

// ClockOffset returns the estimated offset of rank 0's clock relative
// to the local clock (rank0 = local + offset) and the RTT of the probe
// the estimate came from. Both are zero on rank 0, on single-rank
// meshes, with Options.DisableClockSync, and when the sync failed.
func (t *Transport) ClockOffset() (offsetNs, rttNs int64) {
	return t.clockOff.Load(), t.clockRTT.Load()
}

// EdgeLatency returns the histogram of clock-aligned send-to-receive
// latencies of the DATA frames this endpoint has received — the live
// dp_edge_latency_seconds series.
func (t *Transport) EdgeLatency() obs.HistogramSnapshot {
	return t.latHist.Snapshot()
}

// PeerNet is one peer's wire counters within NetStats.
type PeerNet struct {
	// Peer is the peer rank.
	Peer int `json:"peer"`
	// FramesSent/FramesRecv count whole frames of any kind (DATA,
	// ACK, heartbeat, collectives); BytesSent/BytesRecv the raw bytes
	// including length prefixes.
	FramesSent int64 `json:"frames_sent"`
	FramesRecv int64 `json:"frames_recv"`
	BytesSent  int64 `json:"bytes_sent"`
	BytesRecv  int64 `json:"bytes_recv"`
}

// NetStats is the endpoint-wide wire-level statistics snapshot: totals,
// clock-sync state and per-peer counters. Safe to call while the run is
// in flight (all sources are atomics) — it is what the live /metrics
// endpoint serves.
type NetStats struct {
	// Rank and Size identify the endpoint.
	Rank int `json:"rank"`
	Size int `json:"size"`
	// BytesSent/BytesRecv are raw wire totals (Transport.Bytes).
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
	// Messages and Elems are the DATA messages and float64 elements
	// sent (Transport.Stats).
	Messages int64 `json:"messages"`
	Elems    int64 `json:"elems"`
	// ClockOffsetNs/ClockRTTNs are the clock-sync estimate
	// (Transport.ClockOffset).
	ClockOffsetNs int64 `json:"clock_offset_ns"`
	ClockRTTNs    int64 `json:"clock_rtt_ns"`
	// HeartbeatMisses/PeerRestarts are the recovery counters.
	HeartbeatMisses int64 `json:"heartbeat_misses"`
	PeerRestarts    int64 `json:"peer_restarts"`
	// Peers holds the per-peer frame/byte counters, excluding the self
	// index.
	Peers []PeerNet `json:"peers"`
	// EdgeLatency is the live latency histogram of received edges.
	EdgeLatency obs.HistogramSnapshot `json:"edge_latency"`
}

// NetStats snapshots the endpoint's wire-level counters.
func (t *Transport) NetStats() NetStats {
	s := NetStats{
		Rank:            t.rank,
		Size:            t.size,
		BytesSent:       t.bytesOut.Load(),
		BytesRecv:       t.bytesIn.Load(),
		Messages:        t.msgs.Load(),
		Elems:           t.elems.Load(),
		ClockOffsetNs:   t.clockOff.Load(),
		ClockRTTNs:      t.clockRTT.Load(),
		HeartbeatMisses: t.hbMisses.Load(),
		PeerRestarts:    t.peerRestarts.Load(),
		EdgeLatency:     t.latHist.Snapshot(),
	}
	for p := 0; p < t.size; p++ {
		if p == t.rank {
			continue
		}
		s.Peers = append(s.Peers, PeerNet{
			Peer:       p,
			FramesSent: t.framesTo[p].Load(),
			FramesRecv: t.framesFrom[p].Load(),
			BytesSent:  t.bytesTo[p].Load(),
			BytesRecv:  t.bytesFrom[p].Load(),
		})
	}
	return s
}

// WritePrometheus writes the snapshot in the Prometheus text format
// with a rank label on every sample — the body of a rank's live
// /metrics endpoint. The supervisor's aggregation relies on every rank
// self-labelling here.
func (s NetStats) WritePrometheus(w io.Writer) error {
	rank := obs.Label("rank", s.Rank)
	e := obs.Expo{W: w}
	for _, f := range []struct {
		obs.Family
		v int64
	}{
		{obs.Counter("dp_net_bytes_sent_total", "Raw bytes written to the wire, frame headers included."), s.BytesSent},
		{obs.Counter("dp_net_bytes_recv_total", "Raw bytes read from the wire, frame headers included."), s.BytesRecv},
		{obs.Counter("dp_net_messages_sent_total", "DATA messages sent."), s.Messages},
		{obs.Counter("dp_net_elems_sent_total", "Float64 elements sent in DATA messages."), s.Elems},
		{obs.Gauge("dp_clock_offset_ns", "Estimated clock offset to rank 0 in nanoseconds."), s.ClockOffsetNs},
		{obs.Gauge("dp_clock_rtt_ns", "RTT of the min-RTT clock probe in nanoseconds."), s.ClockRTTNs},
		{obs.HeartbeatMisses, s.HeartbeatMisses},
		{obs.PeerRestarts, s.PeerRestarts},
	} {
		e.Family(f.Family)
		e.Sample(f.Name, rank, f.v)
	}
	for _, f := range []struct {
		obs.Family
		v func(PeerNet) int64
	}{
		{obs.Counter("dp_net_peer_frames_sent_total", "Frames sent to each peer."), func(p PeerNet) int64 { return p.FramesSent }},
		{obs.Counter("dp_net_peer_frames_recv_total", "Frames received from each peer."), func(p PeerNet) int64 { return p.FramesRecv }},
		{obs.Counter("dp_net_peer_bytes_sent_total", "Bytes sent to each peer."), func(p PeerNet) int64 { return p.BytesSent }},
		{obs.Counter("dp_net_peer_bytes_recv_total", "Bytes received from each peer."), func(p PeerNet) int64 { return p.BytesRecv }},
	} {
		e.Family(f.Family)
		for _, p := range s.Peers {
			e.Sample(f.Name, rank+","+obs.Label("peer", p.Peer), f.v(p))
		}
	}
	e.Histogram(obs.EdgeLatency, rank, s.EdgeLatency)
	return e.Err()
}
