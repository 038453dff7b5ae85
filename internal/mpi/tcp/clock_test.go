package tcp

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpgen/internal/obs"
)

func TestPickClockOffset(t *testing.T) {
	if _, _, ok := pickClockOffset(nil); ok {
		t.Error("empty sample set reported ok")
	}
	off, rtt, ok := pickClockOffset([]clockSample{
		{rtt: 5000, offset: 900},
		{rtt: 1200, offset: 40}, // min RTT: tightest error bound wins
		{rtt: 3000, offset: -500},
	})
	if !ok || off != 40 || rtt != 1200 {
		t.Errorf("picked offset %d rtt %d ok %v, want the min-RTT sample (40, 1200)", off, rtt, ok)
	}
}

// TestClockSyncSameHost checks the handshake-time estimate on a real
// loopback mesh: both endpoints share one physical clock, so the
// estimate IS the error, and the theory bounds it by half the probe's
// round trip.
func TestClockSyncSameHost(t *testing.T) {
	t0, t1 := dialPair(t, Options{})
	<-t1.clockDone
	if off, rtt := t0.ClockOffset(); off != 0 || rtt != 0 {
		t.Errorf("rank 0 offset = (%d, %d), want zero: rank 0 defines the timeline", off, rtt)
	}
	off, rtt := t1.ClockOffset()
	if rtt <= 0 {
		t.Fatalf("rank 1 min probe rtt = %d, want > 0", rtt)
	}
	// Scheduling slack: the bound is |off| <= rtt/2 on an ideal host;
	// allow a little preemption between the clock reads.
	slack := int64(200 * time.Microsecond)
	if off < -rtt/2-slack || off > rtt/2+slack {
		t.Errorf("offset estimate %dns outside the ±rtt/2 bound (rtt %dns)", off, rtt)
	}
}

// TestClockSyncAsymmetricDelay injects a one-way delay into half of the
// clock responses (the worst case for a midpoint estimator: fully
// asymmetric path delay). The min-RTT selector must pick an undelayed
// round, keeping the estimate bounded by that round's ±rtt/2 instead of
// absorbing the injected delay.
func TestClockSyncAsymmetricDelay(t *testing.T) {
	const inject = 3 * time.Millisecond
	var calls atomic.Int64
	opts := Options{
		clockRespDelay: func() time.Duration {
			if calls.Add(1)%2 == 1 {
				return inject // delay every other response
			}
			return 0
		},
	}
	_, t1 := dialPair(t, opts)
	<-t1.clockDone
	off, rtt := t1.ClockOffset()
	if rtt <= 0 {
		t.Fatalf("min probe rtt = %d, want > 0", rtt)
	}
	if rtt >= int64(inject) {
		t.Errorf("min rtt %dns did not reject the %v injected rounds", rtt, inject)
	}
	slack := int64(200 * time.Microsecond)
	if off < -rtt/2-slack || off > rtt/2+slack {
		t.Errorf("offset estimate %dns outside ±rtt/2 (rtt %dns) despite min-RTT selection", off, rtt)
	}
	if off >= int64(inject)/2 {
		t.Errorf("offset estimate %dns absorbed the injected asymmetric delay (%v/2)", off, inject)
	}
}

// TestClockSyncAllDelayed is the degraded case: when every response is
// delayed, the estimate inevitably absorbs the asymmetry, but the error
// stays within the advertised ±rtt/2 envelope of the kept sample.
func TestClockSyncAllDelayed(t *testing.T) {
	const inject = 2 * time.Millisecond
	opts := Options{
		clockRespDelay: func() time.Duration { return inject },
	}
	_, t1 := dialPair(t, opts)
	<-t1.clockDone
	off, rtt := t1.ClockOffset()
	if rtt < int64(inject) {
		t.Fatalf("min rtt %dns below the injected floor %v", rtt, inject)
	}
	slack := int64(500 * time.Microsecond)
	if off < -rtt/2-slack || off > rtt/2+slack {
		t.Errorf("offset estimate %dns outside ±rtt/2 (rtt %dns)", off, rtt)
	}
}

func TestClockSyncDisabled(t *testing.T) {
	_, t1 := dialPair(t, Options{DisableClockSync: true})
	<-t1.clockDone
	if off, rtt := t1.ClockOffset(); off != 0 || rtt != 0 {
		t.Errorf("DisableClockSync left offset = (%d, %d), want zero", off, rtt)
	}
}

// TestNetStats exercises the wire-level snapshot: per-peer frame and
// byte counters on both directions, the edge-latency histogram fed by
// received DATA frames, and the Prometheus rendering.
func TestNetStats(t *testing.T) {
	t0, t1 := dialPair(t, Options{})
	t0.Send(1, 7, []float64{1, 2, 3}, []int64{9})
	m, ok := t1.Recv()
	if !ok {
		t.Fatal("recv failed")
	}
	if m.SendAtUnixNanos == 0 {
		t.Error("received message lacks the sender's aligned send timestamp")
	}
	if m.Seq == 0 {
		t.Error("received message lacks a wire sequence number")
	}
	m.Release()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := t1.NetStats(); s.EdgeLatency.Count >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("edge latency histogram never observed the received frame")
		}
		time.Sleep(time.Millisecond)
	}

	s0, s1 := t0.NetStats(), t1.NetStats()
	if s0.Rank != 0 || s0.Size != 2 || s1.Rank != 1 {
		t.Fatalf("identity: %+v / %+v", s0, s1)
	}
	if len(s0.Peers) != 1 || s0.Peers[0].Peer != 1 {
		t.Fatalf("rank 0 peers = %+v, want exactly peer 1", s0.Peers)
	}
	if s0.Peers[0].FramesSent == 0 || s0.Peers[0].BytesSent == 0 {
		t.Errorf("rank 0 sent counters empty: %+v", s0.Peers[0])
	}
	if s1.Peers[0].FramesRecv == 0 || s1.Peers[0].BytesRecv == 0 {
		t.Errorf("rank 1 recv counters empty: %+v", s1.Peers[0])
	}
	if s0.Messages != 1 || s0.Elems != 3 {
		t.Errorf("rank 0 message counters = %d msgs / %d elems, want 1 / 3", s0.Messages, s0.Elems)
	}

	var sb strings.Builder
	if err := s1.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`dp_net_bytes_recv_total{rank="1"}`,
		`dp_net_peer_frames_recv_total{rank="1",peer="0"}`,
		`dp_net_peer_bytes_sent_total{rank="1",peer="0"}`,
		`dp_clock_offset_ns{rank="1"}`,
		`dp_edge_latency_seconds_bucket{rank="1",le="+Inf"} 1`,
		`dp_edge_latency_seconds_count{rank="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus exposition lacks %q:\n%s", want, out)
		}
	}
}

// The families both the trace aggregates and the wire counters export
// come from one declaration: the same HELP and TYPE lines in both
// bodies, samples labelled node="N" in one and rank="R" in the other.
func TestNetStatsSharesObsFamilies(t *testing.T) {
	var wire, trace strings.Builder
	ns := NetStats{Rank: 1, HeartbeatMisses: 2, PeerRestarts: 1, EdgeLatency: obs.NewHistogram().Snapshot()}
	if err := ns.WritePrometheus(&wire); err != nil {
		t.Fatal(err)
	}
	lat := obs.NewHistogram().Snapshot()
	m := &obs.Metrics{Nodes: []obs.NodeMetrics{{Node: 0, HeartbeatMisses: 2, PeerRestarts: 1}}, EdgeLatency: &lat}
	if err := m.WritePrometheus(&trace); err != nil {
		t.Fatal(err)
	}
	for _, f := range []obs.Family{obs.HeartbeatMisses, obs.PeerRestarts, obs.EdgeLatency} {
		header := "# HELP " + f.Name + " " + f.Help + "\n# TYPE " + f.Name + " " + f.Type + "\n"
		for body, text := range map[string]string{"wire": wire.String(), "trace": trace.String()} {
			if strings.Count(text, "# HELP "+f.Name+" ") != 1 || !strings.Contains(text, header) {
				t.Errorf("%s body lacks the one declaration of %s:\n%s", body, f.Name, text)
			}
		}
	}
	for _, want := range []string{`dp_heartbeat_misses_total{rank="1"} 2`, `dp_peer_restarts_total{rank="1"} 1`} {
		if !strings.Contains(wire.String(), want) {
			t.Errorf("wire body lacks %q:\n%s", want, wire.String())
		}
	}
	for _, want := range []string{`dp_heartbeat_misses_total{node="0"} 2`, `dp_peer_restarts_total{node="0"} 1`} {
		if !strings.Contains(trace.String(), want) {
			t.Errorf("trace body lacks %q:\n%s", want, trace.String())
		}
	}
}
