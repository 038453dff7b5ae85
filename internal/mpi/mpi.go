// Package mpi is an in-process message-passing substrate with the shape
// of the MPI subset the generated programs use: ranks, tagged
// point-to-point sends, blocking receive and all-reduce. The paper's
// ranks poll MPI for incoming edges (Section V-A step 6) because an MPI
// rank has no progress thread; here a receiver goroutine per node
// blocks in Recv instead, so the substrate needs no non-blocking probe.
//
// It exists because this reproduction has no MPI ecosystem to link
// against: every "node" of the hybrid program is a set of goroutines
// sharing one address space, and the network is a set of bounded
// channels. The bounded send-buffer and receive-buffer pools reproduce
// the backpressure semantics that make the paper's buffer-count
// configuration option (Section VI-C) observable: a sender with all send
// buffers in flight stalls until a receiver drains one.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Message is a tagged payload between ranks. After processing, the
// receiver must call Release to return the sender's send-buffer slot
// and recycle the payload buffers — or ReleaseSlot if it needs to keep
// the payload.
type Message struct {
	// Src is the sending rank.
	Src int
	// Tag is the caller-chosen message tag (the engine uses the tile
	// dependence index).
	Tag int
	// Data is the payload; ownership follows the pool contract of
	// GetData/PutData.
	Data []float64
	// Meta is the integer metadata (the engine packs the consumer tile
	// coordinates here); ownership follows GetMeta/PutMeta.
	Meta []int64
	// SendAtUnixNanos is the sender's clock-aligned wall time when the
	// message hit the wire (rank-0 clock; see the TCP transport's clock
	// sync). Zero for in-process transports, which skip the stamp to
	// keep the fast path free of time syscalls.
	SendAtUnixNanos int64
	// Seq is the per-(sender, destination) wire sequence number of the
	// carrying DATA frame; zero for in-process transports.
	Seq uint64
	// Epoch is the sender's membership epoch when the message was sent
	// (see the elastic membership protocol). Zero for in-process
	// transports and for transports that never change membership.
	Epoch uint32

	slot     chan struct{}
	release  func()
	once     sync.Once
	recycled atomic.Bool
}

// NewMessage builds a delivered message whose send-buffer slot is
// freed by calling release (once, on the first Release/ReleaseSlot).
// It is the constructor used by out-of-process transports such as
// dpgen/internal/mpi/tcp, whose slot release is a wire-level
// acknowledgement rather than a channel operation.
func NewMessage(src, tag int, data []float64, meta []int64, release func()) *Message {
	return &Message{Src: src, Tag: tag, Data: data, Meta: meta, release: release}
}

// Release returns the send-buffer slot to the sender and recycles
// m.Data and m.Meta into the shared buffer pools: the caller must not
// retain either slice past this call. Safe to call multiple times; only
// the first has effect.
func (m *Message) Release() {
	m.ReleaseSlot()
	if m.recycled.CompareAndSwap(false, true) {
		PutData(m.Data)
		PutMeta(m.Meta)
		m.Data, m.Meta = nil, nil
	}
}

// ReleaseSlot returns the send-buffer slot without recycling the
// payload, for receivers that keep m.Data or m.Meta alive past the
// release point (they then recycle via PutData/PutMeta themselves, or
// let the GC have the slices). Safe to call multiple times.
func (m *Message) ReleaseSlot() {
	m.once.Do(func() {
		if m.slot != nil {
			<-m.slot
		}
		if m.release != nil {
			m.release()
		}
	})
}

// Edge-buffer pools. Packed tile edges dominate allocation in the
// runtime's hot path, so payload slices cycle through sync.Pools: the
// engine (and Message.Release) return them with PutData/PutMeta and
// producers draw them with GetData/GetMeta. The second pool of each
// pair recycles the pointer-sized headers so the steady state allocates
// nothing at all.
var (
	dataPool, dataHdrs sync.Pool // *[]float64: full buffers / spare headers
	metaPool, metaHdrs sync.Pool // *[]int64
)

// GetData returns a []float64 of length n, reusing pooled capacity when
// possible. The contents are unspecified.
func GetData(n int) []float64 {
	if p, _ := dataPool.Get().(*[]float64); p != nil {
		s := *p
		*p = nil
		dataHdrs.Put(p)
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float64, n)
}

// PutData recycles a buffer obtained from GetData (or received in a
// Message). The caller must not use s afterwards.
func PutData(s []float64) {
	if cap(s) == 0 {
		return
	}
	p, _ := dataHdrs.Get().(*[]float64)
	if p == nil {
		p = new([]float64)
	}
	*p = s[:0]
	dataPool.Put(p)
}

// GetMeta returns an []int64 of length n from the metadata pool.
func GetMeta(n int) []int64 {
	if p, _ := metaPool.Get().(*[]int64); p != nil {
		s := *p
		*p = nil
		metaHdrs.Put(p)
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]int64, n)
}

// PutMeta recycles a metadata slice. The caller must not use s afterwards.
func PutMeta(s []int64) {
	if cap(s) == 0 {
		return
	}
	p, _ := metaHdrs.Get().(*[]int64)
	if p == nil {
		p = new([]int64)
	}
	*p = s[:0]
	metaPool.Put(p)
}

// Comm is a communicator over a fixed set of ranks.
type Comm struct {
	size      int
	inbox     []chan *Message
	sendSlots []chan struct{}

	// Barrier state, and the slot of the one reduction in flight (the
	// barrier generation serialises reductions), all under mu.
	mu     sync.Mutex
	cond   *sync.Cond
	count  int
	gen    int
	reduce []float64

	// Per-sending-rank statistics (atomic).
	messages []atomic.Int64
	elems    []atomic.Int64

	closed atomic.Bool
}

// NewComm creates a communicator with the given number of ranks. Each
// rank has sendBufs send-buffer slots (its sends beyond that block until
// a receiver releases one) and recvBufs receive-buffer slots (senders to
// a full inbox block until the receiver dequeues). Both must be >= 1.
func NewComm(size, sendBufs, recvBufs int) (*Comm, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: size %d", size)
	}
	if sendBufs < 1 || recvBufs < 1 {
		return nil, fmt.Errorf("mpi: need at least 1 send and recv buffer, got %d/%d", sendBufs, recvBufs)
	}
	c := &Comm{size: size}
	c.cond = sync.NewCond(&c.mu)
	c.reduce = make([]float64, size)
	c.inbox = make([]chan *Message, size)
	c.sendSlots = make([]chan struct{}, size)
	c.messages = make([]atomic.Int64, size)
	c.elems = make([]atomic.Int64, size)
	for i := range c.inbox {
		c.inbox[i] = make(chan *Message, recvBufs)
		c.sendSlots[i] = make(chan struct{}, sendBufs)
	}
	return c, nil
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// Rank returns the handle for rank r.
func (c *Comm) Rank(r int) *Rank {
	if r < 0 || r >= c.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, c.size))
	}
	return &Rank{c: c, id: r}
}

// Close shuts down all inboxes. It must only be called after global
// quiescence (no sends in flight or forthcoming); receivers then observe
// end-of-stream.
func (c *Comm) Close() {
	if c.closed.CompareAndSwap(false, true) {
		for _, ch := range c.inbox {
			close(ch)
		}
	}
}

// Rank is one endpoint of a communicator; it implements Transport.
type Rank struct {
	c  *Comm
	id int
}

var _ Transport = (*Rank)(nil)

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.c.size }

// Stats returns the messages and elements sent by this rank.
func (r *Rank) Stats() (messages, elems int64) {
	return r.c.messages[r.id].Load(), r.c.elems[r.id].Load()
}

// Err always returns nil: the in-process transport cannot lose a peer.
func (r *Rank) Err() error { return nil }

// Close shuts down the whole communicator (see Comm.Close); it is
// idempotent, so every rank of a collective run may call it.
func (r *Rank) Close() error {
	r.c.Close()
	return nil
}

// Send delivers a tagged message to dst. It blocks while all of this
// rank's send buffers are in flight, and while dst's receive buffers are
// full — the two backpressure mechanisms of the generated programs.
// data and meta are handed off and must not be modified by the caller
// afterwards.
//
// The returned stall is the time the caller spent blocked on either
// mechanism (zero on the uncontended fast path, which takes no clock
// reading) — the per-send quantity behind NodeStats.SendStallTime and
// the Section VI-C buffer-count sweep.
func (r *Rank) Send(dst, tag int, data []float64, meta []int64) (stall time.Duration) {
	slot := r.c.sendSlots[r.id]
	select {
	case slot <- struct{}{}: // acquire a send buffer, uncontended
	default:
		t0 := time.Now()
		slot <- struct{}{}
		stall = time.Since(t0)
	}
	m := &Message{Src: r.id, Tag: tag, Data: data, Meta: meta, slot: slot}
	r.c.messages[r.id].Add(1)
	r.c.elems[r.id].Add(int64(len(data)))
	select {
	case r.c.inbox[dst] <- m:
	default:
		t0 := time.Now()
		r.c.inbox[dst] <- m
		stall += time.Since(t0)
	}
	return stall
}

// Recv blocks for the next message. ok is false when the communicator
// has been closed and the inbox drained.
func (r *Rank) Recv() (m *Message, ok bool) {
	m, ok = <-r.c.inbox[r.id]
	return m, ok
}

// barrier blocks, with c.mu held, until every rank has entered it.
func (c *Comm) barrier() {
	gen := c.gen
	c.count++
	if c.count == c.size {
		c.count = 0
		c.gen++
		c.cond.Broadcast()
		return
	}
	for gen == c.gen {
		c.cond.Wait()
	}
}

// AllReduce combines one float64 per rank with f (applied in rank order)
// and returns the result on every rank. All ranks must call it
// collectively, and reductions must not overlap with other reductions on
// the same communicator. The in-process implementation never returns a
// non-nil error.
func (r *Rank) AllReduce(v float64, f func(a, b float64) float64) (float64, error) {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reduce[r.id] = v
	c.barrier()
	acc := c.reduce[0]
	for _, x := range c.reduce[1:] {
		acc = f(acc, x)
	}
	c.barrier() // keep reduce stable until everyone has read
	return acc, nil
}
