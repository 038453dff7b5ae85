// Mesh establishment: the initial full-mesh Dial, the endpoint skeleton
// and listener it shares with DialRejoin (recovery.go), and the
// goroutines an established endpoint runs.

package tcp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dpgen/internal/mpi"
	"dpgen/internal/obs"
)

// Dial establishes this rank's endpoint of a full TCP mesh over the
// given peer addresses (peers[r] is rank r's listen address; rank is
// this process's index into it). It blocks until every connection is
// up or Options.DialTimeout expires; peers may start in any order
// inside that window — dials retry with exponential backoff.
func Dial(rank int, peers []string, opts Options) (*Transport, error) {
	if len(peers) < 1 {
		return nil, errors.New("tcp: no peers")
	}
	t, err := open(rank, peers, opts, "listen")
	if err != nil || t.size == 1 {
		return t, err
	}
	deadline := time.Now().Add(t.opts.DialTimeout)

	// Higher ranks dial us; we dial lower ranks. One result per side.
	nres := rank
	naccept := t.size - 1 - rank
	if naccept > 0 {
		nres++
	}
	errs := make(chan error, nres)
	var pending sync.WaitGroup
	if naccept > 0 {
		pending.Add(1)
		go func() {
			defer pending.Done()
			errs <- t.acceptPeers(naccept, deadline)
		}()
	}
	for s := 0; s < rank; s++ {
		pending.Add(1)
		go func(s int) {
			defer pending.Done()
			errs <- t.dialPeer(s, peers[s], deadline, kHello)
		}(s)
	}

	var firstErr error
	timeout := time.NewTimer(time.Until(deadline) + 2*time.Second)
	defer timeout.Stop()
	stopCh := t.stop
	for got := 0; got < nres; {
		select {
		case err := <-errs:
			got++
			if err != nil && firstErr == nil {
				firstErr = err
				t.ln.Close() // unblock the accept loop
			}
		case <-timeout.C:
			if firstErr == nil {
				firstErr = fmt.Errorf("tcp: rank %d: mesh not established within %s", rank, t.opts.DialTimeout)
			}
			t.ln.Close()
		case <-stopCh:
			// Context cancellation (or Kill) during mesh establishment.
			if firstErr == nil {
				firstErr = t.errOr()
			}
			t.ln.Close()
			stopCh = nil // collect the remaining results without respinning
		}
	}
	pending.Wait()
	if firstErr != nil {
		t.abort(firstErr)
		return nil, firstErr
	}
	t.start()
	return t, nil
}

// open builds the endpoint skeleton shared by Dial and DialRejoin and,
// on a mesh of more than one rank, binds its listener; verb names the
// bind in its error.
func open(rank int, peers []string, opts Options, verb string) (*Transport, error) {
	size := len(peers)
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("tcp: rank %d out of range [0,%d)", rank, size)
	}
	o := opts.withDefaults()
	t := &Transport{
		rank:       rank,
		size:       size,
		opts:       o,
		conns:      make([]*peerConn, size),
		pstate:     make([]*peerState, size),
		inbox:      make(chan *mpi.Message, o.RecvBufs),
		slots:      make(chan struct{}, o.SendBufs),
		drained:    make(chan struct{}, 1),
		stop:       make(chan struct{}),
		coordCh:    make(chan ctrl, 4*size),
		relCh:      make(chan ctrl, 4),
		elasticCh:  make(chan mpi.ElasticMsg, 8*size),
		allByes:    make(chan struct{}),
		framesTo:   make([]atomic.Int64, size),
		framesFrom: make([]atomic.Int64, size),
		bytesTo:    make([]atomic.Int64, size),
		bytesFrom:  make([]atomic.Int64, size),
		dataSeq:    make([]atomic.Uint64, size),
		clockCh:    make(chan clockResp, 4),
		clockDone:  make(chan struct{}),
		latHist:    obs.NewHistogram(),
	}
	for i := range t.pstate {
		t.pstate[i] = &peerState{}
	}
	if rank == 0 || size == 1 || o.DisableClockSync {
		// Nothing to estimate: rank 0 defines the timeline, and a
		// disabled sync stamps raw local clocks. Marking readiness here
		// keeps the endpoint's very first sends aligned-stamped.
		t.clockReady.Store(true)
	}
	if size == 1 {
		return t, nil
	}
	if t.ln = o.Listener; t.ln == nil {
		var err error
		if t.ln, err = net.Listen("tcp", peers[rank]); err != nil {
			return nil, fmt.Errorf("tcp: rank %d %s %s: %w", rank, verb, peers[rank], err)
		}
	}
	if ctx := o.Context; ctx != nil {
		// One watcher for the endpoint's life. During mesh establishment
		// the failure stops dialPeer's backoff sleeps and the closed
		// listener unblocks the accept side; afterwards the closed
		// sockets unblock readers (stuck in ReadFull) and writers.
		t.bg.Add(1)
		go func() {
			defer t.bg.Done()
			select {
			case <-ctx.Done():
				t.abort(fmt.Errorf("tcp: rank %d: %w", rank, ctx.Err()))
			case <-t.stop:
			}
		}()
	}
	return t, nil
}

// abort fails the endpoint with err and severs its listener and every
// connection, unblocking whatever is parked on them.
func (t *Transport) abort(err error) {
	t.fail(err)
	if t.ln != nil {
		t.ln.Close()
	}
	t.closeAllConns()
}

// start launches the endpoint's goroutines once every connection is
// up: a reader per connection, under Recovery the heartbeat prober and
// the rejoin accept loop, and the clock sync.
func (t *Transport) start() {
	for _, pc := range t.snapshotConns() {
		if pc != nil {
			t.readers.Add(1)
			go t.reader(pc)
		}
	}
	now := time.Now().UnixNano()
	for i, ps := range t.pstate {
		if i != t.rank {
			ps.lastHeard.Store(now)
		}
	}
	if t.opts.Recovery {
		t.bg.Add(2)
		go t.heartbeatLoop()
		go t.acceptLoop()
	}
	// Asynchronous on purpose: peers whose Dial already returned send
	// DATA (or, after a rejoin, replay retained history) immediately,
	// and with a small inbox this endpoint's reader parks on delivery
	// until the engine drains — a synchronous sync here would starve its
	// own responses behind that backlog and, under Recovery, trip the
	// heartbeat monitor (see syncClock).
	go t.syncClock()
}

// acceptPeers accepts and handshakes the connections from all higher
// ranks.
func (t *Transport) acceptPeers(n int, deadline time.Time) error {
	for i := 0; i < n; i++ {
		c, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("tcp: rank %d accept: %w", t.rank, err)
		}
		c.SetReadDeadline(deadline)
		kind, peer, err := readIdent(c)
		if err != nil || kind != kHello {
			c.Close()
			return fmt.Errorf("tcp: rank %d handshake: %v", t.rank, err)
		}
		if peer <= t.rank || peer >= t.size || t.conn(peer) != nil {
			c.Close()
			return fmt.Errorf("tcp: rank %d: unexpected hello from rank %d", t.rank, peer)
		}
		c.SetReadDeadline(time.Time{})
		t.setConn(peer, newPeerConn(peer, c))
	}
	return nil
}

// dialPeer connects to rank s, retrying with exponential backoff
// until the deadline, and opens the stream with the given identity
// frame (HELLO during mesh establishment, REJOIN when a restarted rank
// reconnects). A transport stop (context cancellation, Kill) aborts the
// backoff wait promptly.
func (t *Transport) dialPeer(s int, addr string, deadline time.Time, kind byte) error {
	backoff := retryBase
	for attempt := 0; ; attempt++ {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			if werr := writeIdent(c, kind, t.rank); werr == nil {
				t.setConn(s, newPeerConn(s, c))
				return nil
			} else {
				err = werr
				c.Close()
			}
		}
		if t.stopped() {
			return fmt.Errorf("tcp: rank %d dial rank %d (%s): %w", t.rank, s, addr, t.errOr())
		}
		if time.Now().Add(backoff).After(deadline) {
			return fmt.Errorf("tcp: rank %d dial rank %d (%s) after %d attempts: %w",
				t.rank, s, addr, attempt+1, err)
		}
		t.opts.logf("tcp: rank %d dial rank %d (%s) attempt %d: %v; retrying in %s",
			t.rank, s, addr, attempt+1, err, backoff)
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-t.stop:
			timer.Stop()
			return fmt.Errorf("tcp: rank %d dial rank %d (%s): %w", t.rank, s, addr, t.errOr())
		}
		backoff *= 2
		if backoff > retryMax {
			backoff = retryMax
		}
	}
}
