package mpi

import (
	"sync"
	"testing"
	"time"
)

func TestNewCommValidation(t *testing.T) {
	if _, err := NewComm(0, 1, 1); err == nil {
		t.Error("size 0 should fail")
	}
	if _, err := NewComm(2, 0, 1); err == nil {
		t.Error("0 send bufs should fail")
	}
	if _, err := NewComm(2, 1, 0); err == nil {
		t.Error("0 recv bufs should fail")
	}
}

func TestPingPong(t *testing.T) {
	c, err := NewComm(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r1 := c.Rank(1)
		m, ok := r1.Recv()
		if !ok {
			t.Error("recv failed")
			return
		}
		if m.Src != 0 || m.Tag != 7 || len(m.Data) != 3 || m.Data[1] != 2.5 || m.Meta[0] != 42 {
			t.Errorf("message corrupted: %+v", m)
		}
		m.Release()
		r1.Send(0, 8, []float64{9}, nil)
	}()
	r0 := c.Rank(0)
	r0.Send(1, 7, []float64{1, 2.5, 3}, []int64{42})
	m, ok := r0.Recv()
	if !ok || m.Tag != 8 || m.Data[0] != 9 {
		t.Errorf("reply wrong: %+v ok=%v", m, ok)
	}
	m.Release()
	<-done
	msgs, elems := commStats(c)
	if msgs != 2 || elems != 4 {
		t.Errorf("stats = %d msgs %d elems", msgs, elems)
	}
}

// commStats sums the messages and elements every rank of c sent.
func commStats(c *Comm) (messages, elems int64) {
	for r := 0; r < c.Size(); r++ {
		m, e := c.Rank(r).Stats()
		messages += m
		elems += e
	}
	return messages, elems
}

func TestSendBufferBackpressure(t *testing.T) {
	// With 1 send buffer, a second send blocks until the receiver
	// releases the first message.
	c, _ := NewComm(2, 1, 8)
	r0 := c.Rank(0)
	r0.Send(1, 1, []float64{1}, nil)

	sent2 := make(chan struct{})
	go func() {
		r0.Send(1, 2, []float64{2}, nil)
		close(sent2)
	}()
	select {
	case <-sent2:
		t.Fatal("second send did not block with 1 send buffer")
	case <-time.After(30 * time.Millisecond):
	}
	m, ok := c.Rank(1).Recv()
	if !ok {
		t.Fatal("recv failed")
	}
	m.Release()
	select {
	case <-sent2:
	case <-time.After(2 * time.Second):
		t.Fatal("second send still blocked after release")
	}
	m2, _ := c.Rank(1).Recv()
	m2.Release()
}

func TestRecvBufferBackpressure(t *testing.T) {
	// With 1 recv buffer and ample send buffers, the second send blocks
	// on the full inbox even though messages are never released.
	c, _ := NewComm(2, 8, 1)
	r0 := c.Rank(0)
	r0.Send(1, 1, []float64{1}, nil)
	sent2 := make(chan struct{})
	go func() {
		r0.Send(1, 2, []float64{2}, nil)
		close(sent2)
	}()
	select {
	case <-sent2:
		t.Fatal("second send did not block with full inbox")
	case <-time.After(30 * time.Millisecond):
	}
	m, _ := c.Rank(1).Recv() // drains one slot
	select {
	case <-sent2:
	case <-time.After(2 * time.Second):
		t.Fatal("second send still blocked after inbox drain")
	}
	m.Release()
	m2, _ := c.Rank(1).Recv()
	m2.Release()
}

func TestReleaseIdempotent(t *testing.T) {
	c, _ := NewComm(2, 1, 2)
	c.Rank(0).Send(1, 1, nil, nil)
	m, _ := c.Rank(1).Recv()
	m.Release()
	m.Release() // must not double-release the slot
	// The slot must be free for exactly one more send.
	c.Rank(0).Send(1, 2, nil, nil)
	m2, _ := c.Rank(1).Recv()
	m2.Release()
}

func TestCloseEndsRecv(t *testing.T) {
	c, _ := NewComm(2, 1, 2)
	done := make(chan bool)
	go func() {
		_, ok := c.Rank(1).Recv()
		done <- ok
	}()
	c.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("Recv on closed comm returned ok")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not return after Close")
	}
	c.Close() // idempotent
}

func TestAllReduce(t *testing.T) {
	const n = 5
	c, _ := NewComm(n, 1, 1)
	var wg sync.WaitGroup
	results := make([]float64, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], _ = c.Rank(r).AllReduce(float64(r+1), func(a, b float64) float64 { return a + b })
		}(r)
	}
	wg.Wait()
	for r, v := range results {
		if v != 15 {
			t.Errorf("rank %d AllReduce = %v, want 15", r, v)
		}
	}
}

func TestAllReduceMax(t *testing.T) {
	const n = 3
	c, _ := NewComm(n, 1, 1)
	var wg sync.WaitGroup
	results := make([]float64, n)
	vals := []float64{2, 9, 4}
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], _ = c.Rank(r).AllReduce(vals[r], func(a, b float64) float64 {
				if a > b {
					return a
				}
				return b
			})
		}(r)
	}
	wg.Wait()
	for r, v := range results {
		if v != 9 {
			t.Errorf("rank %d = %v, want 9", r, v)
		}
	}
}

func TestRankOutOfRangePanics(t *testing.T) {
	c, _ := NewComm(2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.Rank(2)
}

func TestManyToOneStress(t *testing.T) {
	const senders = 8
	const msgs = 200
	c, _ := NewComm(senders+1, 2, 4)
	var wg sync.WaitGroup
	for r := 0; r < senders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rank := c.Rank(r + 1)
			for i := 0; i < msgs; i++ {
				rank.Send(0, i, []float64{float64(r)}, nil)
			}
		}(r)
	}
	got := 0
	r0 := c.Rank(0)
	for got < senders*msgs {
		m, ok := r0.Recv()
		if !ok {
			t.Fatal("comm closed early")
		}
		m.Release()
		got++
	}
	wg.Wait()
	msgsN, _ := commStats(c)
	if msgsN != senders*msgs {
		t.Errorf("stats msgs = %d, want %d", msgsN, senders*msgs)
	}
}

func TestRankAccessors(t *testing.T) {
	c, _ := NewComm(3, 1, 1)
	if c.Size() != 3 {
		t.Error("Comm.Size wrong")
	}
	r := c.Rank(2)
	if r.ID() != 2 || r.Size() != 3 {
		t.Error("Rank accessors wrong")
	}
}

// TestSendStallMeasured: with one send buffer held in flight, a second
// send must block until the receiver releases, and report that block as
// stall time; an uncontended send reports zero.
func TestSendStallMeasured(t *testing.T) {
	c, _ := NewComm(2, 1, 8)
	s := c.Rank(0)
	r := c.Rank(1)
	if stall := s.Send(1, 0, []float64{1}, nil); stall != 0 {
		t.Errorf("uncontended send stalled %v", stall)
	}
	const hold = 20 * time.Millisecond
	done := make(chan time.Duration)
	go func() {
		// The only send-buffer slot is in flight until the first
		// message is released, so this send stalls.
		done <- s.Send(1, 1, []float64{2}, nil)
	}()
	time.Sleep(hold)
	m, _ := r.Recv()
	m.Release()
	if stall := <-done; stall < hold/2 {
		t.Errorf("blocked send reported stall %v, want >= %v", stall, hold/2)
	}
	m, _ = r.Recv()
	m.Release()
}
