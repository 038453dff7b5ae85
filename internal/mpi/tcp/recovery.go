// The recovery protocol (Options.Recovery, docs/FAULT_TOLERANCE.md):
// peer-down marking, retained DATA history and its replay on rejoin,
// heartbeat failure detection, and the rejoin dial of a restarted rank.

package tcp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dpgen/internal/mpi"
)

// peerState is the per-peer bookkeeping the Recovery protocol needs:
// liveness tracking for heartbeat failure detection, the retained
// DATA-frame history replayed when the peer rejoins, and the count of
// unacknowledged sends on the current connection (whose send-buffer
// slots must be returned when the peer dies, because their ACKs will
// never arrive).
type peerState struct {
	lastHeard atomic.Int64 // unix nanos of the last frame from this peer

	mu        sync.Mutex
	down      bool
	downSince time.Time
	inflight  int      // unacked DATA sends on the current connection
	retained  [][]byte // encoded DATA frames, replayed on rejoin
}

// sendRecovery is the Recovery-mode remote DATA send: the fully
// encoded frame is retained for rejoin replay before the write, sends
// to a down peer are parked (the frame stays retained, the send-buffer
// slot is returned immediately), and a write failure marks the peer
// down instead of failing the transport. A send-buffer slot has
// already been acquired by the caller.
func (t *Transport) sendRecovery(dst int, f dataFrame) {
	frame := make([]byte, 0, 4+1+dataHdrLen+8*len(f.meta)+8*len(f.data))
	frame = appendFrame(frame, kData, func(b []byte) []byte { return appendDataBody(b, f) })

	ps := t.pstate[dst]
	ps.mu.Lock()
	ps.retained = append(ps.retained, frame)
	retained := len(ps.retained)
	down := ps.down
	ps.mu.Unlock()
	if down {
		// Parked: no ACK will come until the peer rejoins and the frame
		// is replayed; give the slot back so live traffic keeps flowing.
		t.opts.observe(ObsPark, dst, int64(retained))
		t.releaseSlot()
		return
	}
	pc := t.conn(dst)
	if pc == nil {
		t.releaseSlot()
		return
	}
	if err := pc.writeFrame(t, frame); err != nil {
		t.markPeerDown(dst, pc, fmt.Errorf("send: %w", err))
		t.releaseSlot()
		return
	}
	ps.mu.Lock()
	ps.inflight++
	ps.mu.Unlock()
}

// markPeerDown transitions a peer to the down state under Recovery:
// the failed connection is closed, the slots of its unacknowledged
// sends are returned (their ACKs will never arrive; the retained
// frames are replayed on rejoin), and subsequent sends to the peer are
// parked. Without Recovery it fails the whole transport with a typed
// *mpi.PeerDownError. A stale call — the observed connection has
// already been replaced by a rejoin — is ignored.
func (t *Transport) markPeerDown(peer int, pc *peerConn, cause error) {
	if t.closing.Load() || t.stopped() {
		return
	}
	if !t.opts.Recovery {
		t.fail(fmt.Errorf("tcp: rank %d: %w", t.rank, &mpi.PeerDownError{Rank: peer, Cause: cause}))
		return
	}
	t.connMu.RLock()
	stale := pc != nil && t.conns[peer] != pc
	t.connMu.RUnlock()
	if stale {
		return
	}
	ps := t.pstate[peer]
	ps.mu.Lock()
	if ps.down {
		ps.mu.Unlock()
		return
	}
	ps.down = true
	ps.downSince = time.Now()
	lost := ps.inflight
	ps.inflight = 0
	ps.mu.Unlock()
	if pc != nil {
		pc.c.Close()
	}
	for i := 0; i < lost; i++ {
		t.releaseSlot()
	}
	t.opts.observe(ObsPeerDown, peer, int64(lost))
	t.opts.logf("tcp: rank %d: peer %d down (%v); %d unacked sends returned, awaiting rejoin",
		t.rank, peer, cause, lost)
}

// heartbeatLoop probes every live peer each Options.HeartbeatEvery: it
// sends a HEARTBEAT frame, counts a miss for every peer not heard from
// within 1.5 intervals, declares a peer down after heartbeatMisses
// intervals of silence, and fails the transport with a typed
// *mpi.PeerDownError once a down peer has stayed down past
// Options.PeerDownTimeout without rejoining.
func (t *Transport) heartbeatLoop() {
	defer t.bg.Done()
	tick := time.NewTicker(t.opts.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		for peer, ps := range t.pstate {
			if peer == t.rank {
				continue
			}
			ps.mu.Lock()
			down, since := ps.down, ps.downSince
			ps.mu.Unlock()
			if down {
				if now.Sub(since) > t.opts.PeerDownTimeout {
					t.fail(fmt.Errorf("tcp: rank %d: %w", t.rank, &mpi.PeerDownError{
						Rank:  peer,
						Cause: fmt.Errorf("no rejoin within %s", t.opts.PeerDownTimeout),
					}))
					return
				}
				continue
			}
			pc := t.conn(peer)
			if pc == nil {
				continue
			}
			if err := pc.sendFrame(t, kHeartbeat, nil); err != nil {
				t.markPeerDown(peer, pc, fmt.Errorf("heartbeat write: %w", err))
				continue
			}
			silent := now.Sub(time.Unix(0, ps.lastHeard.Load()))
			if silent > t.opts.HeartbeatEvery+t.opts.HeartbeatEvery/2 {
				t.hbMisses.Add(1)
				if silent > heartbeatMisses*t.opts.HeartbeatEvery {
					t.markPeerDown(peer, pc, fmt.Errorf("no frames for %s (%d heartbeat intervals)",
						silent.Round(time.Millisecond), heartbeatMisses))
				}
			}
		}
	}
}

// acceptLoop keeps the listener alive after mesh establishment under
// Recovery, accepting REJOIN connections from restarted peers. It
// exits when Close (or a context cancellation) closes the listener.
func (t *Transport) acceptLoop() {
	defer t.bg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.bg.Add(1)
		go t.handleRejoin(c)
	}
}

// handleRejoin validates a REJOIN handshake, swaps the peer's entry in
// the connection table to the new socket, restarts its reader, and
// replays the full retained DATA history — the receiving engine
// deduplicates edges it has already applied (docs/FAULT_TOLERANCE.md).
func (t *Transport) handleRejoin(c net.Conn) {
	defer t.bg.Done()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	kind, peer, err := readIdent(c)
	if err != nil || kind != kRejoin || peer < 0 || peer >= t.size || peer == t.rank {
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	pc := newPeerConn(peer, c)
	t.connMu.Lock()
	if t.stopped() {
		t.connMu.Unlock()
		c.Close()
		return
	}
	old := t.conns[peer]
	t.conns[peer] = pc
	t.connMu.Unlock()
	if old != nil {
		old.c.Close() // the stale reader exits; its markPeerDown is a no-op
	}
	ps := t.pstate[peer]
	ps.lastHeard.Store(time.Now().UnixNano())
	ps.mu.Lock()
	ps.down = false
	ps.downSince = time.Time{}
	ps.inflight = 0
	replay := make([][]byte, len(ps.retained))
	copy(replay, ps.retained)
	ps.mu.Unlock()
	// Only a restarted process sends REJOIN, so this is a restart even
	// when it overtakes the old connection's observed death.
	t.peerRestarts.Add(1)
	t.opts.observe(ObsRejoin, peer, int64(len(replay)))
	t.readers.Add(1)
	go t.reader(pc)
	for i, frame := range replay {
		if err := pc.writeFrame(t, frame); err != nil {
			t.opts.logf("tcp: rank %d: rejoin replay to peer %d failed at frame %d/%d: %v",
				t.rank, peer, i, len(replay), err)
			t.markPeerDown(peer, pc, fmt.Errorf("rejoin replay: %w", err))
			return
		}
	}
	t.opts.observe(ObsReplay, peer, int64(len(replay)))
	t.opts.logf("tcp: rank %d: peer %d rejoined; replayed %d data frames", t.rank, peer, len(replay))
}

// DialRejoin reconnects a restarted rank into an existing Recovery
// mesh: it listens on peers[rank] again (or Options.Listener), dials
// every other rank and identifies itself with a REJOIN frame, which
// makes each live peer swap in the new connection and replay its
// retained send history. The caller then resumes the engine from the
// rank's checkpoint (engine.Config.Checkpoint.Resume). Recovery is
// implied: opts.Recovery is forced on.
func DialRejoin(rank int, peers []string, opts Options) (*Transport, error) {
	opts.Recovery = true
	if len(peers) < 2 {
		return nil, errors.New("tcp: rejoin needs at least two ranks")
	}
	t, err := open(rank, peers, opts, "relisten")
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(t.opts.DialTimeout)
	errs := make(chan error, t.size-1)
	for s := 0; s < t.size; s++ {
		if s == rank {
			continue
		}
		go func(s int) { errs <- t.dialPeer(s, peers[s], deadline, kRejoin) }(s)
	}
	var firstErr error
	for i := 0; i < t.size-1; i++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		t.abort(firstErr)
		return nil, firstErr
	}
	t.start()
	return t, nil
}

// RecoveryStats reports the cumulative heartbeat misses and peer
// restarts (successful rejoins of a restarted peer) this
// endpoint has observed — the sources of the dp_heartbeat_misses_total
// and dp_peer_restarts_total metrics.
func (t *Transport) RecoveryStats() (heartbeatMisses, peerRestarts int64) {
	return t.hbMisses.Load(), t.peerRestarts.Load()
}
