// Package tcp is the multi-process implementation of the mpi.Transport
// contract: every rank is a separate OS process, and tile edges travel
// between them over length-prefixed frames on a full mesh of TCP
// connections. It is the piece that turns the in-process reproduction
// into a genuinely distributed system — cmd/dprun wires it up behind
// the -distributed flag.
//
// The wire format, buffer-ownership rules and failure semantics are
// specified in docs/TRANSPORT.md. In short:
//
//   - Mesh establishment: rank r listens on peers[r], dials every rank
//     s < r (with exponential-backoff retry until Options.DialTimeout,
//     so processes may start in any order) and accepts a connection
//     from every rank s > r; a HELLO frame identifies the dialer.
//   - Data: a DATA frame carries (src, tag, meta, data). The receiver
//     enqueues it into a bounded inbox (Options.RecvBufs); releasing
//     the message sends an ACK frame back, which frees one of the
//     sender's Options.SendBufs send-buffer slots. This reproduces the
//     in-process transport's two backpressure mechanisms over the wire.
//   - Collective: AllReduce is coordinated by rank 0 with VALUE and
//     RESULT frames; no rank leaves before all have entered, so it is
//     the barrier too.
//   - Shutdown: Close drains outstanding ACKs, exchanges BYE frames,
//     and only then tears the sockets down, bounded by drainTimeout.
//   - Failure: a connection that dies before BYE marks the transport
//     failed — Recv returns ok=false, Err reports the cause (a typed
//     *mpi.PeerDownError for peer death), and blocked collectives
//     return errors instead of hanging.
//   - Recovery (Options.Recovery): peer death no longer fails the
//     transport. The dead peer is marked down, DATA sends to it are
//     parked, and every DATA send is retained so that when the peer's
//     restarted process reconnects (DialRejoin + REJOIN frame) the
//     full send history is replayed — the receiver's engine
//     deduplicates. Heartbeat frames bound detection latency; a peer
//     that stays down past Options.PeerDownTimeout fails the transport
//     with *mpi.PeerDownError. See docs/FAULT_TOLERANCE.md.
//
// The package is split along the contract (docs/TRANSPORT.md has the
// file map): frame.go is the codec, pure functions over []byte;
// conn.go one connection's write path and reader loop; this file and
// dial.go the mesh — Options, Dial, Send/Recv, Close/Kill;
// collective.go, recovery.go, membership.go and clock.go the protocols
// on top.
package tcp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dpgen/internal/mpi"
	"dpgen/internal/obs"
)

// Fixed timing of the mesh: constants rather than Options, because no
// two callers want different values.
const (
	// retryBase is the first dial-retry backoff; it doubles per attempt
	// up to retryMax.
	retryBase = 25 * time.Millisecond
	retryMax  = time.Second
	// heartbeatMisses is how many Options.HeartbeatEvery intervals may
	// pass without any frame from a peer before it is declared down. TCP
	// read errors usually detect process death much sooner; heartbeats
	// catch wedged-but-connected peers.
	heartbeatMisses = 8
	// sendTimeout is the per-message write deadline; a send that cannot
	// complete within it fails the transport.
	sendTimeout = 30 * time.Second
	// drainTimeout bounds the graceful Close drain: waiting for
	// outstanding ACKs and the peers' BYE frames.
	drainTimeout = 10 * time.Second
)

// Options configures a TCP transport endpoint. Zero values select the
// defaults noted on each field.
type Options struct {
	// SendBufs is the number of in-flight unacknowledged sends allowed
	// before Send blocks (default 4) — the MPI send-buffer analog.
	SendBufs int
	// RecvBufs is the inbox capacity in messages (default 16); when it
	// is full, backpressure propagates to senders through TCP.
	RecvBufs int
	// DialTimeout bounds mesh establishment (default 20s). Peers may
	// start in any order inside this window.
	DialTimeout time.Duration
	// Listener, if non-nil, is a pre-bound listener for this rank's
	// address, overriding peers[rank]; tests use it to avoid port
	// races. The transport takes ownership and closes it.
	Listener net.Listener
	// Logf, if non-nil, receives debug log lines (dial retries, drain
	// progress).
	Logf func(format string, args ...any)
	// ChaosDelay, if non-nil, is a fault-injection hook for tests: each
	// received data message is held for the returned duration before it
	// is enqueued to the inbox, so deliveries — including deliveries
	// from the same peer — can arrive out of order. Delayed messages
	// bypass the inbox's TCP backpressure while they are held, so keep
	// delays short. A zero return delivers immediately. Control frames
	// (ACK, all-reduce, BYE) are never delayed.
	ChaosDelay func(src, tag int) time.Duration
	// Recovery enables the fault-tolerance protocol: peer death marks
	// the peer down instead of failing the transport, DATA sends are
	// retained for replay, the listener keeps accepting REJOIN
	// connections from restarted peers, and heartbeats bound failure
	// detection. All ranks of a job must agree on this setting. See
	// docs/FAULT_TOLERANCE.md.
	Recovery bool
	// HeartbeatEvery is the heartbeat send interval under Recovery
	// (default 250ms).
	HeartbeatEvery time.Duration
	// PeerDownTimeout bounds how long a down peer may stay down before
	// the transport gives up and fails with *mpi.PeerDownError
	// (default 2m). The dprun supervisor's restart budget should fit
	// inside this window.
	PeerDownTimeout time.Duration
	// Context, if non-nil, cancels the endpoint: dial retries stop, and
	// blocked sends, Recv and AllReduce return promptly with
	// the context's error once it is done. Ctrl-C handling in cmd/dprun
	// wires os.Interrupt here.
	Context context.Context
	// DisableClockSync skips the clock-offset ping-pong against rank 0
	// after mesh establishment. ClockOffset then reports zero and DATA
	// frames carry raw local send timestamps; merged traces lose their
	// alignment guarantee. The overhead benchmarks use it to isolate
	// the cost of the handshake.
	DisableClockSync bool
	// Observer, if non-nil, receives recovery-protocol transitions
	// (ObsPeerDown, ObsPark, ObsRejoin, ObsReplay) as they happen. It
	// is called from transport goroutines — reader, heartbeat and send
	// paths — and must be safe for concurrent use and non-blocking;
	// cmd/dprun bridges it onto a mutex-guarded trace lane.
	Observer func(event string, peer int, val int64)
	// clockRespDelay is a test-only hook delaying kClockReq responses,
	// injecting asymmetric path delay into the offset estimation.
	clockRespDelay func() time.Duration
}

// Observer event names (Options.Observer).
const (
	// ObsPeerDown fires when a peer is declared down; val is the
	// number of in-flight sends whose slots were reclaimed.
	ObsPeerDown = "peer_down"
	// ObsPark fires when a send to a down peer is parked for replay;
	// val is the cumulative parked count for that peer.
	ObsPark = "park"
	// ObsRejoin fires when a restarted peer reconnects; val is the
	// number of retained frames about to be replayed.
	ObsRejoin = "rejoin"
	// ObsReplay fires when retained-frame replay to a rejoined peer
	// completes; val is the number of frames replayed.
	ObsReplay = "replay"
)

func (o Options) withDefaults() Options {
	if o.SendBufs == 0 {
		o.SendBufs = 4
	}
	if o.RecvBufs == 0 {
		o.RecvBufs = 16
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 20 * time.Second
	}
	if o.HeartbeatEvery == 0 {
		o.HeartbeatEvery = 250 * time.Millisecond
	}
	if o.PeerDownTimeout == 0 {
		o.PeerDownTimeout = 2 * time.Minute
	}
	return o
}

// observe forwards a recovery transition to Options.Observer, if set.
func (o Options) observe(event string, peer int, val int64) {
	if o.Observer != nil {
		o.Observer(event, peer, val)
	}
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// conn returns the current connection to peer (nil at the self index,
// or for a peer whose connection has not been established).
func (t *Transport) conn(peer int) *peerConn {
	t.connMu.RLock()
	defer t.connMu.RUnlock()
	return t.conns[peer]
}

// setConn installs a connection during mesh establishment.
func (t *Transport) setConn(peer int, pc *peerConn) {
	t.connMu.Lock()
	t.conns[peer] = pc
	t.connMu.Unlock()
}

// snapshotConns returns a copy of the connection table, so callers can
// iterate it without holding connMu across network writes.
func (t *Transport) snapshotConns() []*peerConn {
	t.connMu.RLock()
	defer t.connMu.RUnlock()
	out := make([]*peerConn, len(t.conns))
	copy(out, t.conns)
	return out
}

// closeAllConns closes every current connection socket (used by Close,
// Kill and context cancellation to unblock readers and writers).
func (t *Transport) closeAllConns() {
	for _, pc := range t.snapshotConns() {
		if pc != nil {
			pc.c.Close()
		}
	}
}

// Transport is one rank's endpoint of a TCP mesh; it implements
// mpi.Transport. Create one with Dial; it is live for exactly one run.
type Transport struct {
	rank int
	size int
	opts Options

	ln     net.Listener
	connMu sync.RWMutex
	conns  []*peerConn  // indexed by peer rank; nil at the self index
	pstate []*peerState // per-peer recovery bookkeeping (always allocated)

	inbox chan *mpi.Message
	slots chan struct{}
	// drained holds one wake-up for WaitDrained, left by the release
	// that empties slots.
	drained chan struct{}

	msgs     atomic.Int64
	elems    atomic.Int64
	bytesOut atomic.Int64
	bytesIn  atomic.Int64

	// Per-peer wire counters (indexed by peer rank; the self index
	// stays zero) and the per-destination DATA sequence counters.
	framesTo   []atomic.Int64
	framesFrom []atomic.Int64
	bytesTo    []atomic.Int64
	bytesFrom  []atomic.Int64
	dataSeq    []atomic.Uint64

	// Clock sync state: the estimated offset of rank 0's clock relative
	// to the local clock, the RTT of the probe it came from, the
	// channel the reader routes CLOCKRESP frames to, and whether the
	// sync attempt has finished (DATA frames sent before that are
	// stamped unaligned). clockDone closes when the attempt completes.
	clockOff   atomic.Int64
	clockRTT   atomic.Int64
	clockCh    chan clockResp
	clockReady atomic.Bool
	clockDone  chan struct{}

	// latHist observes one aligned send-to-receive latency per received
	// DATA frame (the dp_edge_latency_seconds histogram).
	latHist *obs.Histogram

	stop     chan struct{}
	stopOnce sync.Once
	chaosWG  sync.WaitGroup // in-flight ChaosDelay deliveries
	errMu    sync.Mutex
	err      error
	closing  atomic.Bool

	readers sync.WaitGroup
	bg      sync.WaitGroup // heartbeat, rejoin-accept and context-watcher goroutines

	hbMisses     atomic.Int64
	peerRestarts atomic.Int64

	seq atomic.Uint32 // all-reduce sequence number

	// epoch is the current membership epoch stamped into outgoing DATA
	// frames; elasticCh carries decoded membership control frames to the
	// engine's coordinator (see SendElastic / ElasticCh).
	epoch     atomic.Uint32
	elasticCh chan mpi.ElasticMsg

	coordCh chan ctrl // rank 0: all-reduce values
	relCh   chan ctrl // non-zero ranks: all-reduce results

	byeMu   sync.Mutex
	byes    int
	allByes chan struct{}

	closeOnce sync.Once
}

var _ mpi.Transport = (*Transport)(nil)

// ID returns this endpoint's rank.
func (t *Transport) ID() int { return t.rank }

// Size returns the number of ranks in the mesh.
func (t *Transport) Size() int { return t.size }

// Stats returns the messages and float64 elements sent by this
// endpoint.
func (t *Transport) Stats() (messages, elems int64) {
	return t.msgs.Load(), t.elems.Load()
}

// Bytes returns the raw bytes this endpoint has written to and read
// from the wire, frame headers included — the bytes-on-wire quantity
// behind the dp_edge_bytes_sent_total estimate in internal/obs.
func (t *Transport) Bytes() (sent, recvd int64) {
	return t.bytesOut.Load(), t.bytesIn.Load()
}

// Err returns the first fatal transport error observed, or nil.
func (t *Transport) Err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.err
}

// fail records the first fatal error and stops the transport.
func (t *Transport) fail(err error) {
	t.errMu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.errMu.Unlock()
	t.stopOnce.Do(func() { close(t.stop) })
}

func (t *Transport) stopped() bool {
	select {
	case <-t.stop:
		return true
	default:
		return false
	}
}

// errOr returns the recorded error, or a generic one if the transport
// stopped without recording a cause.
func (t *Transport) errOr() error {
	if err := t.Err(); err != nil {
		return err
	}
	return errors.New("tcp: transport closed")
}

// releaseSlot frees one send-buffer slot without blocking: on an ACK,
// or for a send whose ACK will never come. The release that empties
// the semaphore wakes WaitDrained.
func (t *Transport) releaseSlot() {
	select {
	case <-t.slots:
		if len(t.slots) == 0 {
			select {
			case t.drained <- struct{}{}:
			default:
			}
		}
	default:
	}
}

// WaitDrained blocks until no send is waiting for an acknowledgement
// and returns true; it returns false if abort closes or the transport
// stops first. Acknowledgements fire after the receiver's release, so
// a true return means every edge this endpoint sent has been received.
// Other senders are not held up: the wait takes no slot.
func (t *Transport) WaitDrained(abort <-chan struct{}) bool {
	for len(t.slots) > 0 {
		select {
		case <-t.drained:
		case <-abort:
			return false
		case <-t.stop:
			return false
		}
	}
	return true
}

// Send delivers a tagged message to dst, blocking while all
// Options.SendBufs send-buffer slots are in flight. The returned stall
// is the time spent blocked on a slot (zero on the uncontended fast
// path). On a failed transport Send drops the message and returns
// immediately; the failure surfaces through Err, Recv and AllReduce.
func (t *Transport) Send(dst, tag int, data []float64, meta []int64) (stall time.Duration) {
	// Acquire a send-buffer slot (freed by the receiver's ACK).
	select {
	case t.slots <- struct{}{}:
	default:
		t0 := time.Now()
		select {
		case t.slots <- struct{}{}:
		case <-t.stop:
			return time.Since(t0)
		}
		stall = time.Since(t0)
	}
	t.msgs.Add(1)
	t.elems.Add(int64(len(data)))
	if dst == t.rank {
		// Self-delivery short-circuits the wire; the slot frees when
		// the local receiver releases the message.
		m := mpi.NewMessage(t.rank, tag, data, meta, t.releaseSlot)
		m.Epoch = t.epoch.Load()
		select {
		case t.inbox <- m:
		case <-t.stop:
		}
		return stall
	}
	if dst < 0 || dst >= t.size {
		panic(fmt.Sprintf("tcp: send to rank %d out of range [0,%d)", dst, t.size))
	}
	f := dataFrame{src: t.rank, tag: tag, epoch: t.epoch.Load(), meta: meta, data: data}
	f.sendAt, f.seq = t.stampData(dst)
	if t.opts.Recovery {
		t.sendRecovery(dst, f)
		return stall
	}
	err := t.conn(dst).sendFrame(t, kData, func(b []byte) []byte { return appendDataBody(b, f) })
	if err != nil {
		t.fail(fmt.Errorf("tcp: rank %d send to rank %d: %w", t.rank, dst, err))
		// No ACK will come for this message; return the slot so Close's
		// drain does not wait on it.
		t.releaseSlot()
	}
	return stall
}

// stampData produces the wire stamp of one outgoing DATA frame: the
// clock-aligned send time (local wall clock plus the estimated offset
// to rank 0, so the receiver computes latency without knowing the
// sender's offset) and the next per-destination sequence number. Until
// the clock sync has completed (it runs on a goroutine after a
// rejoin), sendAt is zero: receivers skip the latency observation
// rather than absorb an unaligned stamp.
func (t *Transport) stampData(dst int) (sendAt int64, seq uint64) {
	seq = t.dataSeq[dst].Add(1)
	if !t.clockReady.Load() {
		return 0, seq
	}
	return t.alignedNow(), seq
}

// noteBye records one peer's graceful end-of-stream.
func (t *Transport) noteBye() {
	t.byeMu.Lock()
	t.byes++
	done := t.byes == t.size-1
	t.byeMu.Unlock()
	if done {
		close(t.allByes)
	}
}

// Recv blocks for the next message. ok is false once the transport has
// been closed — or has failed (see Err) — and the inbox is drained.
func (t *Transport) Recv() (*mpi.Message, bool) {
	select {
	case m, ok := <-t.inbox:
		return m, ok
	case <-t.stop:
		// Prefer draining what already arrived.
		select {
		case m, ok := <-t.inbox:
			return m, ok
		default:
			return nil, false
		}
	}
}

// Close shuts the endpoint down gracefully: it waits (bounded by
// drainTimeout) for outstanding sends to be acknowledged and for the
// clock sync to finish, exchanges BYE frames with every peer, then
// tears down the sockets and closes the inbox so Recv returns ok=false.
// Close after a transport failure skips the drain. It returns Err().
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		t.closing.Store(true)
		if t.size > 1 && t.Err() == nil {
			ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			defer cancel()
			if !t.WaitDrained(ctx.Done()) {
				t.opts.logf("tcp: rank %d: close with %d unacknowledged sends after %s drain", t.rank, len(t.slots), drainTimeout)
			}
			// A run can end before its clock probes are answered; rank 0
			// answers them until it has this endpoint's BYE.
			select {
			case <-t.clockDone:
			case <-ctx.Done():
			case <-t.stop:
			}
			for _, pc := range t.snapshotConns() {
				if pc != nil {
					pc.sendFrame(t, kBye, nil) // best effort
				}
			}
			select {
			case <-t.allByes:
			case <-ctx.Done():
				t.opts.logf("tcp: rank %d: close without all BYEs after %s drain", t.rank, drainTimeout)
			case <-t.stop:
			}
		}
		t.stopOnce.Do(func() { close(t.stop) })
		if t.ln != nil {
			t.ln.Close()
		}
		t.closeAllConns()
		t.bg.Wait()
		t.readers.Wait()
		t.chaosWG.Wait()
		close(t.inbox)
	})
	return t.Err()
}

// Kill abruptly severs every connection without the BYE handshake,
// simulating process death — the fault-injection hook used by the
// transport conformance tests. The surviving peers observe a
// connection error: their Recv returns ok=false, Err reports the
// death, and a blocked AllReduce returns an error.
func (t *Transport) Kill() {
	t.abort(fmt.Errorf("tcp: rank %d killed", t.rank))
}
