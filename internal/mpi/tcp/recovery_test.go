// Fault-tolerance tests for the Recovery protocol: send retention and
// parking, rejoin replay, peer-down detection, and context
// cancellation. The engine-level bit-identity test over a crashed and
// recovered rank lives in the repository root (recovery_test.go).
package tcp_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"dpgen/internal/mpi"
	"dpgen/internal/mpi/tcp"
)

// recoveryPair builds a two-rank Recovery mesh over loopback and
// returns the transports plus the peer address list (for DialRejoin).
func recoveryPair(t *testing.T, tune func(o *tcp.Options)) (t0, t1 *tcp.Transport, peers []string) {
	t.Helper()
	lns, peers, err := tcp.Loopback(2)
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]*tcp.Transport, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := tcp.Options{
				Recovery:    true,
				SendBufs:    16,
				RecvBufs:    16,
				DialTimeout: 10 * time.Second,
				Listener:    lns[r],
			}
			if tune != nil {
				tune(&o)
			}
			ts[r], errs[r] = tcp.Dial(r, peers, o)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", r, err)
		}
	}
	return ts[0], ts[1], peers
}

// TestRejoinRedelivery: rank 0 sends half its traffic before rank 1
// dies and half while it is down (parked, not blocking). The restarted
// rank 1 must receive every message at least once through the retained
// history replay, and rank 0 must count one peer restart.
func TestRejoinRedelivery(t *testing.T) {
	t0, t1, peers := recoveryPair(t, nil)

	const total = 10
	for tag := 0; tag < 5; tag++ {
		t0.Send(1, tag, []float64{float64(tag)}, nil)
	}
	for i := 0; i < 3; i++ {
		m, ok := t1.Recv()
		if !ok {
			t.Fatal("healthy recv failed")
		}
		m.Release()
	}
	t1.Kill()
	time.Sleep(20 * time.Millisecond) // let rank 0's reader observe the death

	// Sends to a down peer park: they must return without blocking even
	// though nothing is draining ACKs.
	parkDone := make(chan struct{})
	go func() {
		defer close(parkDone)
		for tag := 5; tag < total; tag++ {
			t0.Send(1, tag, []float64{float64(tag)}, nil)
		}
	}()
	select {
	case <-parkDone:
	case <-time.After(10 * time.Second):
		t.Fatal("sends to a down peer blocked")
	}

	t1b, err := tcp.DialRejoin(1, peers, tcp.Options{SendBufs: 16, RecvBufs: 16, DialTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	seen := make(map[int]bool)
	for len(seen) < total {
		m, ok := t1b.Recv()
		if !ok {
			t.Fatalf("recv after rejoin failed with %d/%d tags seen", len(seen), total)
		}
		if m.Data[0] != float64(m.Tag) {
			t.Fatalf("corrupted replayed message: %+v", m)
		}
		seen[m.Tag] = true
		m.Release()
	}
	if _, restarts := t0.RecoveryStats(); restarts != 1 {
		t.Errorf("rank 0 peer restarts = %d, want 1", restarts)
	}

	var wg sync.WaitGroup
	for _, tr := range []*tcp.Transport{t0, t1b} {
		wg.Add(1)
		go func(tr *tcp.Transport) { defer wg.Done(); tr.Close() }(tr)
	}
	wg.Wait()
}

// TestPeerDownTimeout: a dead peer that never rejoins must fail the
// transport with a typed *mpi.PeerDownError carrying the dead rank,
// unblocking Recv, rather than waiting forever.
func TestPeerDownTimeout(t *testing.T) {
	t0, t1, _ := recoveryPair(t, func(o *tcp.Options) {
		o.HeartbeatEvery = 10 * time.Millisecond
		o.PeerDownTimeout = 150 * time.Millisecond
	})
	defer t0.Close()

	recvOK := make(chan bool, 1)
	go func() {
		_, ok := t0.Recv()
		recvOK <- ok
	}()
	t1.Kill()

	select {
	case ok := <-recvOK:
		if ok {
			t.Error("Recv returned ok after unrecovered peer death")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv hung past the peer-down timeout")
	}
	var pde *mpi.PeerDownError
	if err := t0.Err(); !errors.As(err, &pde) {
		t.Fatalf("Err = %v, want *mpi.PeerDownError", err)
	} else if pde.Rank != 1 {
		t.Errorf("PeerDownError.Rank = %d, want 1", pde.Rank)
	}
}

// TestContextCancelUnblocks: cancelling the endpoint's context must
// promptly unblock Recv and AllReduce, and Close must reap every
// goroutine the mesh started.
func TestContextCancelUnblocks(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	t0, t1, _ := recoveryPair(t, func(o *tcp.Options) { o.Context = ctx })

	recvOK := make(chan bool, 1)
	reduceErr := make(chan error, 1)
	go func() {
		_, ok := t0.Recv()
		recvOK <- ok
	}()
	go func() {
		_, err := t1.AllReduce(1, math.Max) // rank 0 never arrives
		reduceErr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()

	select {
	case ok := <-recvOK:
		if ok {
			t.Error("Recv returned ok after context cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv hung after context cancellation")
	}
	select {
	case err := <-reduceErr:
		if err == nil {
			t.Error("AllReduce returned nil error after context cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AllReduce hung after context cancellation")
	}
	t0.Close()
	t1.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d before, %d after", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
