package tcp

import (
	"net"
	"sync"
	"testing"
	"time"
)

// dialPair brings up a two-rank mesh on loopback with pre-bound
// listeners (no port races) and registers cleanup.
func dialPair(t *testing.T, opts Options) (*Transport, *Transport) {
	t.Helper()
	lns, peers, err := Loopback(2)
	if err != nil {
		t.Fatal(err)
	}
	var ts [2]*Transport
	var errs [2]error
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := opts
			o.Listener = lns[r]
			ts[r], errs[r] = Dial(r, peers, o)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		var cwg sync.WaitGroup
		for _, tr := range ts {
			cwg.Add(1)
			go func(tr *Transport) { defer cwg.Done(); tr.Close() }(tr)
		}
		cwg.Wait()
	})
	return ts[0], ts[1]
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial(0, nil, Options{}); err == nil {
		t.Error("empty peer list accepted")
	}
	if _, err := Dial(2, []string{"a", "b"}, Options{}); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

func TestSingleRankMesh(t *testing.T) {
	tr, err := Dial(0, []string{"unused"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr.Send(0, 5, []float64{1, 2}, []int64{3})
	m, ok := tr.Recv()
	if !ok || m.Src != 0 || m.Tag != 5 || m.Data[1] != 2 || m.Meta[0] != 3 {
		t.Fatalf("self message wrong: %+v ok=%v", m, ok)
	}
	m.Release()
	if v, err := tr.AllReduce(7, func(a, b float64) float64 { return a + b }); err != nil || v != 7 {
		t.Errorf("single-rank allreduce = %v, %v", v, err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestDialRetry: rank 1 dials rank 0 before rank 0 is listening; the
// exponential-backoff retry must ride out the gap.
func TestDialRetry(t *testing.T) {
	lns, peers, err := Loopback(2)
	if err != nil {
		t.Fatal(err)
	}
	addr0, ln1 := peers[0], lns[1]
	lns[0].Close() // nobody listening yet: rank 1's first dials must fail

	var retries int
	opts := Options{
		DialTimeout: 10 * time.Second,
		Logf:        func(string, ...any) { retries++ },
	}
	t1Done := make(chan error, 1)
	var t1 *Transport
	go func() {
		var err error
		o := opts
		o.Listener = ln1
		t1, err = Dial(1, peers, o)
		t1Done <- err
	}()

	time.Sleep(100 * time.Millisecond) // let rank 1 accumulate retries
	lnRe, err := net.Listen("tcp", addr0)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr0, err)
	}
	o := opts
	o.Listener = lnRe
	t0, err := Dial(0, peers, o)
	if err != nil {
		t.Fatalf("rank 0: %v", err)
	}
	if err := <-t1Done; err != nil {
		t.Fatalf("rank 1: %v", err)
	}
	if retries == 0 {
		t.Error("no dial retries recorded despite a late listener")
	}

	t1.Send(0, 1, []float64{42}, nil)
	m, ok := t0.Recv()
	if !ok || m.Data[0] != 42 {
		t.Fatalf("post-retry message wrong: %+v ok=%v", m, ok)
	}
	m.Release()
	var wg sync.WaitGroup
	for _, tr := range []*Transport{t0, t1} {
		wg.Add(1)
		go func(tr *Transport) { defer wg.Done(); tr.Close() }(tr)
	}
	wg.Wait()
}

// TestBadHello: a stranger speaking garbage on the mesh port must fail
// the accept side rather than joining the mesh.
func TestBadHello(t *testing.T) {
	lns, peers, err := Loopback(1)
	if err != nil {
		t.Fatal(err)
	}
	ln := lns[0]
	peers = append(peers, "127.0.0.1:1") // rank 1 never dials properly
	dialDone := make(chan error, 1)
	go func() {
		_, err := Dial(0, peers, Options{DialTimeout: 5 * time.Second, Listener: ln})
		dialDone <- err
	}()
	c, err := net.Dial("tcp", peers[0])
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	c.Close()
	if err := <-dialDone; err == nil {
		t.Error("mesh accepted a malformed hello")
	}
}

func TestBytesOnWire(t *testing.T) {
	t0, t1 := dialPair(t, Options{})
	t0.Send(1, 1, []float64{1, 2, 3}, []int64{4})
	m, ok := t1.Recv()
	if !ok {
		t.Fatal("recv failed")
	}
	m.Release()
	// DATA frame: 4 len + 1 kind + 36 header + 8 meta + 24 data = 73.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if sent, _ := t0.Bytes(); sent >= 73 {
			break
		}
		if time.Now().After(deadline) {
			sent, _ := t0.Bytes()
			t.Fatalf("rank 0 sent %d bytes, want >= 73", sent)
		}
		time.Sleep(time.Millisecond)
	}
	// Rank 1 read the DATA frame and wrote an ACK (4+1 bytes).
	for {
		_, recvd := t1.Bytes()
		sent, _ := t1.Bytes()
		if recvd >= 73 && sent >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank 1 bytes sent=%d recvd=%d, want >=5/>=73", sent, recvd)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWaitDrained: with k sends unreleased at the peer, WaitDrained
// holds until the last one is acknowledged — not after k-1 — and
// returns false on abort and on Kill. A marker message from the peer,
// sent after its releases on the same connection, orders the test
// after rank 0 has applied their ACKs; WaitDrained with a closed abort
// is the non-blocking "drained now?" probe.
func TestWaitDrained(t *testing.T) {
	const k = 3
	t0, t1 := dialPair(t, Options{SendBufs: k})
	closed := make(chan struct{})
	close(closed)
	hold := func() []func() {
		var rel []func()
		for i := 0; i < k; i++ {
			t0.Send(1, i, []float64{float64(i)}, nil)
		}
		for i := 0; i < k; i++ {
			m, ok := t1.Recv()
			if !ok {
				t.Fatal("recv failed")
			}
			rel = append(rel, m.Release)
		}
		return rel
	}
	barrier := func() {
		t1.Send(0, 99, []float64{0}, nil)
		m, ok := t0.Recv()
		if !ok || m.Tag != 99 {
			t.Fatalf("marker: %+v ok=%v", m, ok)
		}
		m.Release()
	}
	wait := func(abort <-chan struct{}) <-chan bool {
		res := make(chan bool, 1)
		go func() { res <- t0.WaitDrained(abort) }()
		return res
	}

	rel := hold()
	done := wait(nil)
	abort := make(chan struct{})
	aborted := wait(abort)
	close(abort)
	if <-aborted {
		t.Fatal("WaitDrained returned true on abort with sends unacknowledged")
	}
	for _, r := range rel[:k-1] {
		r()
	}
	barrier()
	if t0.WaitDrained(closed) {
		t.Fatalf("drained after %d of %d releases", k-1, k)
	}
	select {
	case v := <-done:
		t.Fatalf("waiter returned %v after %d of %d releases", v, k-1, k)
	default:
	}
	rel[k-1]()
	if !<-done {
		t.Fatal("WaitDrained returned false after the last release")
	}
	if !t0.WaitDrained(closed) {
		t.Fatal("drained endpoint probed as not drained")
	}

	hold()
	killed := wait(nil)
	t0.Kill()
	if <-killed {
		t.Fatal("WaitDrained returned true on Kill with sends unacknowledged")
	}
	// Let the peer observe the death, so its cleanup Close does not wait
	// out the drain timeout for a BYE.
	if m, ok := t1.Recv(); ok {
		t.Fatalf("peer received %+v after Kill", m)
	}
}

// TestSelfSendUsesSlots: self-delivery must respect the send-buffer
// budget like any other destination.
func TestSelfSendUsesSlots(t *testing.T) {
	t0, _ := dialPair(t, Options{SendBufs: 1})
	t0.Send(0, 1, []float64{1}, nil)
	sent2 := make(chan struct{})
	go func() {
		t0.Send(0, 2, []float64{2}, nil)
		close(sent2)
	}()
	select {
	case <-sent2:
		t.Fatal("second self-send did not block with 1 send buffer")
	case <-time.After(30 * time.Millisecond):
	}
	m, ok := t0.Recv()
	if !ok {
		t.Fatal("recv failed")
	}
	m.Release()
	select {
	case <-sent2:
	case <-time.After(5 * time.Second):
		t.Fatal("second self-send still blocked after release")
	}
	m2, _ := t0.Recv()
	m2.Release()
}
