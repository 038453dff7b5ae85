package engine

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"dpgen/internal/mpi"
)

// drainStub is a transport whose one send stays unacknowledged until
// the test closes release. Only WaitDrained is implemented; a cut calls
// nothing else.
type drainStub struct {
	mpi.Transport
	n       *node
	entered chan struct{} // closed when WaitDrained is first called
	release chan struct{} // closing it acknowledges the send
	// inFlight is the node's executing-slot count when WaitDrained was
	// entered: a cut drains only once no tile is in flight.
	inFlight int
}

func (s *drainStub) WaitDrained(abort <-chan struct{}) bool {
	s.n.mu.Lock()
	s.inFlight = s.n.executingN
	s.n.mu.Unlock()
	close(s.entered)
	select {
	case <-s.release:
		return true
	case <-abort:
		return false
	}
}

// cutNode is a node with just the state a cut touches, over a drainStub.
func cutNode() (*node, *drainStub) {
	n := &node{}
	n.pauseCond, n.quietCond = sync.NewCond(&n.mu), sync.NewCond(&n.mu)
	s := &drainStub{n: n, entered: make(chan struct{}), release: make(chan struct{})}
	n.rank = s
	return n, s
}

// stepBound is how long a step that should happen may take: a hang
// costs this, not the package timeout.
const stepBound = time.Second

// quietWait is how long a step that must not happen yet is given to
// happen anyway, so a broken cut shows before the test moves on.
const quietWait = 20 * time.Millisecond

// The cut's steps in sequence, driven from the test: a worker holds an
// executing slot and one send is unacknowledged. The cut must wait for
// the tile to retire, then for the acknowledgement, and only then
// report the rank quiet.
func TestCutWaitsForTileThenSend(t *testing.T) {
	n, s := cutNode()
	n.pauseGate() // a worker claims its slot and starts a tile

	ret := make(chan bool, 1)
	go func() { ret <- n.cut(nil) }()

	// Once paused reads true under the lock, the cut holds the gate shut
	// and waits in quietCond for the tile in flight.
	deadline := time.Now().Add(stepBound)
	for {
		n.mu.Lock()
		paused := n.paused
		n.mu.Unlock()
		if paused {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cut did not close the pause gate")
		}
		runtime.Gosched()
	}
	select {
	case <-s.entered:
		t.Fatal("cut waited on the transport with a tile still executing")
	case v := <-ret:
		t.Fatalf("cut returned %v with a tile still executing", v)
	case <-time.After(quietWait):
	}

	n.execDone() // the tile retires
	select {
	case <-s.entered:
	case <-time.After(stepBound):
		t.Fatal("cut did not wait on the transport after the last tile retired")
	}
	if s.inFlight != 0 {
		t.Fatalf("cut drained with %d tiles in flight", s.inFlight)
	}
	select {
	case v := <-ret:
		t.Fatalf("cut returned %v with a send unacknowledged", v)
	case <-time.After(quietWait):
	}

	close(s.release) // the send is acknowledged
	select {
	case v := <-ret:
		if !v {
			t.Fatal("cut returned false after the send was acknowledged")
		}
	case <-time.After(stepBound):
		t.Fatal("cut did not return after the send was acknowledged")
	}
}

// An abort ends the cut's drain wait: the cut returns false, and the
// workers stay paused — a worker reaching the gate parks there.
func TestCutAbortKeepsWorkersPaused(t *testing.T) {
	n, _ := cutNode()
	abort := make(chan struct{})
	close(abort)

	ret := make(chan bool, 1)
	go func() { ret <- n.cut(abort) }()
	select {
	case v := <-ret:
		if v {
			t.Fatal("cut returned true with a send unacknowledged and abort closed")
		}
	case <-time.After(stepBound):
		t.Fatal("cut did not return after abort closed")
	}

	claimed := make(chan struct{})
	go func() {
		n.pauseGate()
		close(claimed)
	}()
	select {
	case <-claimed:
		t.Fatal("a worker claimed a slot after an aborted cut")
	case <-time.After(quietWait):
	}
	n.mu.Lock()
	paused, executing := n.paused, n.executingN
	n.paused = false // let the parked worker go
	n.pauseCond.Broadcast()
	n.mu.Unlock()
	if !paused || executing != 0 {
		t.Fatalf("after an aborted cut: paused %v, %d executing; want paused, none", paused, executing)
	}
	select {
	case <-claimed:
	case <-time.After(stepBound):
		t.Fatal("the parked worker did not claim its slot once the gate reopened")
	}
}
