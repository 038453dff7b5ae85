// One connection of the mesh: the serialized write path and the reader
// loop that decodes incoming frames and routes them to the endpoint's
// inbox, slot semaphore, collective waiters and membership channel.

package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dpgen/internal/mpi"
)

// peerConn is one connection of the mesh, with a serialized writer.
type peerConn struct {
	peer int
	c    net.Conn
	r    *bufio.Reader

	wmu  sync.Mutex
	wbuf []byte
}

func newPeerConn(peer int, c net.Conn) *peerConn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &peerConn{peer: peer, c: c, r: bufio.NewReaderSize(c, 1<<16)}
}

// writeIdent sends the dialer's identity (a HELLO or REJOIN frame) as
// the first frame of a connection.
func writeIdent(c net.Conn, kind byte, rank int) error {
	_, err := c.Write(appendIdent(nil, kind, rank))
	return err
}

// readIdent reads and validates the identity frame (HELLO or REJOIN)
// that opens a dialed connection, returning its kind and the dialer's
// rank.
func readIdent(c net.Conn) (byte, int, error) {
	var b [identLen]byte
	if _, err := io.ReadFull(c, b[:]); err != nil {
		return 0, 0, err
	}
	return decodeIdent(b[:])
}

// sendFrame encodes one frame into the connection's scratch buffer
// under its write lock and writes it.
func (pc *peerConn) sendFrame(t *Transport, kind byte, body func([]byte) []byte) error {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	pc.wbuf = appendFrame(pc.wbuf[:0], kind, body)
	return pc.writeLocked(t, pc.wbuf)
}

// writeFrame writes an already-encoded frame under the connection's
// write lock — the Recovery send and rejoin-replay path, where frames
// are retained and must not share the connection's scratch buffer.
func (pc *peerConn) writeFrame(t *Transport, b []byte) error {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	return pc.writeLocked(t, b)
}

// writeLocked writes b fully within the per-message sendTimeout.
func (pc *peerConn) writeLocked(t *Transport, b []byte) error {
	if t.stopped() {
		return errors.New("transport stopped")
	}
	pc.c.SetWriteDeadline(time.Now().Add(sendTimeout))
	if _, err := pc.c.Write(b); err != nil {
		return err
	}
	t.bytesOut.Add(int64(len(b)))
	if pc.peer >= 0 && pc.peer < len(t.bytesTo) {
		t.bytesTo[pc.peer].Add(int64(len(b)))
		t.framesTo[pc.peer].Add(1)
	}
	return nil
}

// ack sends the slot-release acknowledgement for a message received
// from peer pc.
func (t *Transport) ack(pc *peerConn) {
	if err := pc.sendFrame(t, kAck, nil); err != nil && !t.closing.Load() {
		if t.opts.Recovery {
			// The sender is gone; its restarted incarnation starts with
			// fresh slots, so a lost ACK is harmless.
			t.markPeerDown(pc.peer, pc, fmt.Errorf("ack: %w", err))
			return
		}
		t.fail(fmt.Errorf("tcp: rank %d ack to rank %d: %w", t.rank, pc.peer, err))
	}
}

// reader is the per-connection receive loop: it decodes frames,
// enqueues DATA into the inbox, applies ACKs to the slot semaphore and
// routes collective frames to their waiters. It exits on transport
// stop or on a connection error, which fails the transport unless a
// Close is in progress or the peer has said BYE. After a BYE the peer
// sends nothing but the answers to this endpoint's clock probes, which
// its Close waits for before saying BYE itself.
func (t *Transport) reader(pc *peerConn) {
	defer t.readers.Done()
	var hdr [4]byte
	var body []byte
	bye := false
	for {
		if _, err := io.ReadFull(pc.r, hdr[:]); err != nil {
			if !bye {
				t.readerExit(pc, err)
			}
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n < 1 || n > maxFrame {
			t.fail(fmt.Errorf("tcp: rank %d: bad frame length %d from rank %d", t.rank, n, pc.peer))
			return
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(pc.r, body); err != nil {
			if !bye {
				t.readerExit(pc, err)
			}
			return
		}
		t.bytesIn.Add(int64(4 + n))
		if pc.peer >= 0 && pc.peer < len(t.bytesFrom) {
			t.bytesFrom[pc.peer].Add(int64(4 + n))
			t.framesFrom[pc.peer].Add(1)
		}
		if t.opts.Recovery {
			t.pstate[pc.peer].lastHeard.Store(time.Now().UnixNano())
		}
		kind, p := body[0], body[1:]
		switch kind {
		case kData:
			f, err := decodeData(p)
			if err != nil {
				t.fail(fmt.Errorf("tcp: rank %d: corrupt data frame from rank %d: %v", t.rank, pc.peer, err))
				return
			}
			m := t.message(pc, f)
			if delay := t.opts.ChaosDelay; delay != nil {
				if d := delay(m.Src, m.Tag); d > 0 {
					t.chaosWG.Add(1)
					go t.deliverLate(m, d)
					continue
				}
			}
			select {
			case t.inbox <- m:
			case <-t.stop:
				return
			}
		case kAck:
			t.releaseSlot() // a spurious ACK (e.g. for a replayed frame) is harmless
			if t.opts.Recovery {
				ps := t.pstate[pc.peer]
				ps.mu.Lock()
				if ps.inflight > 0 {
					ps.inflight--
				}
				ps.mu.Unlock()
			}
		case kHeartbeat:
			// Liveness only; lastHeard was updated above.
		case kClockReq:
			if len(p) != 8 {
				t.fail(fmt.Errorf("tcp: rank %d: corrupt clock request from rank %d", t.rank, pc.peer))
				return
			}
			echo := binary.LittleEndian.Uint64(p)
			if d := t.opts.clockRespDelay; d != nil {
				if dd := d(); dd > 0 {
					time.Sleep(dd)
				}
			}
			// Respond with our aligned clock so offsets compose: probing
			// any already-synced rank yields rank 0's timeline.
			if err := pc.sendFrame(t, kClockResp, func(b []byte) []byte {
				b = appendU64(b, echo)
				return appendU64(b, uint64(t.alignedNow()))
			}); err != nil && !t.closing.Load() {
				if t.opts.Recovery {
					t.markPeerDown(pc.peer, pc, fmt.Errorf("clock response: %w", err))
					return
				}
				t.fail(fmt.Errorf("tcp: rank %d clock response to rank %d: %w", t.rank, pc.peer, err))
				return
			}
		case kClockResp:
			if len(p) != 16 {
				t.fail(fmt.Errorf("tcp: rank %d: corrupt clock response from rank %d", t.rank, pc.peer))
				return
			}
			r := clockResp{
				echo:   int64(binary.LittleEndian.Uint64(p[0:8])),
				server: int64(binary.LittleEndian.Uint64(p[8:16])),
				at:     time.Now().UnixNano(),
			}
			select {
			case t.clockCh <- r:
			default: // probe already timed out; drop the stale response
			}
		case kARVal, kARRes:
			c, err := decodeCtrl(kind, p)
			if err != nil {
				t.fail(fmt.Errorf("tcp: rank %d: corrupt control frame from rank %d: %v", t.rank, pc.peer, err))
				return
			}
			waiter := t.relCh // results wake the contributing ranks
			if kind == kARVal {
				waiter = t.coordCh // contributions go to rank 0's coordinator
			}
			select {
			case waiter <- c:
			case <-t.stop:
				return
			}
		case kBye:
			if !bye {
				bye = true
				t.noteBye()
			}
		case kJoin, kLeave, kEpochPrep, kEpochAck, kEpoch, kFin:
			// The frame body buffer is reused by the next read, so the
			// payload handed to the coordinator must be a copy.
			payload := append([]byte(nil), p...)
			select {
			case t.elasticCh <- mpi.ElasticMsg{Kind: kind - kElasticBase, Src: pc.peer, Payload: payload}:
			case <-t.stop:
				return
			}
		default:
			t.fail(fmt.Errorf("tcp: rank %d: unknown frame kind %d from rank %d", t.rank, kind, pc.peer))
			return
		}
	}
}

// message wraps a decoded DATA frame from peer pc as a delivered
// Message whose release ACKs the sender, and observes its latency.
func (t *Transport) message(pc *peerConn, f dataFrame) *mpi.Message {
	if f.sendAt > 0 {
		// Both stamps are on rank 0's clock, so the difference is the
		// edge latency to within the clock-sync error bound.
		t.latHist.ObserveNs(t.alignedNow() - f.sendAt)
	}
	m := mpi.NewMessage(f.src, f.tag, f.data, f.meta, func() { t.ack(pc) })
	m.SendAtUnixNanos = f.sendAt
	m.Seq = f.seq
	m.Epoch = f.epoch
	return m
}

// deliverLate enqueues a ChaosDelay-held message after its delay. A
// transport stop cuts the hold short; a message that can no longer be
// delivered after stop is dropped (the run is already over or failed).
func (t *Transport) deliverLate(m *mpi.Message, d time.Duration) {
	defer t.chaosWG.Done()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-t.stop:
	}
	select {
	case t.inbox <- m:
	default:
		select {
		case t.inbox <- m:
		case <-t.stop:
		}
	}
}

// readerExit handles a connection read error: silent during an
// intentional shutdown, a peer-down transition under Recovery, and a
// fatal typed *mpi.PeerDownError otherwise.
func (t *Transport) readerExit(pc *peerConn, err error) {
	if t.closing.Load() || t.stopped() {
		return
	}
	if t.opts.Recovery {
		t.markPeerDown(pc.peer, pc, fmt.Errorf("connection died before BYE: %w", err))
		return
	}
	t.fail(fmt.Errorf("tcp: rank %d: %w", t.rank,
		&mpi.PeerDownError{Rank: pc.peer, Cause: fmt.Errorf("connection died before BYE: %w", err)}))
}
