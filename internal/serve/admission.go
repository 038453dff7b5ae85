// Admission control: bounded concurrency with bounded waiting. The
// server has two global gates (compile and run) plus one small gate per
// tenant; a request that cannot even queue is shed immediately with
// 429 and a Retry-After estimate instead of growing an unbounded
// backlog — the server degrades by refusing work, never by stalling
// everything it already accepted.

package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// errShed is returned by gate.enter when the wait queue is full.
var errShed = errors.New("serve: queue full")

// gate bounds concurrent holders (slots) and waiting requests
// (maxQueue); beyond both, enter sheds.
type gate struct {
	slots    chan struct{}
	maxQueue int64
	queued   atomic.Int64
	shed     atomic.Int64
	// holdNs accumulates slot hold time for the Retry-After estimate.
	holdNs    atomic.Int64
	holdCount atomic.Int64

	// testQueued, when set by tests, is invoked when a caller queues
	// for a slot, before it waits.
	testQueued func()
}

func newGate(slots, maxQueue int) *gate {
	if slots < 1 {
		slots = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &gate{slots: make(chan struct{}, slots), maxQueue: int64(maxQueue)}
}

// enter acquires a slot, queueing up to maxQueue waiters; a full queue
// returns errShed without blocking, a cancelled context its error.
func (g *gate) enter(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	if g.queued.Add(1) > g.maxQueue {
		g.queued.Add(-1)
		g.shed.Add(1)
		return errShed
	}
	defer g.queued.Add(-1)
	if g.testQueued != nil {
		g.testQueued()
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// leave releases a slot held since start.
func (g *gate) leave(start time.Time) {
	g.holdNs.Add(time.Since(start).Nanoseconds())
	g.holdCount.Add(1)
	<-g.slots
}

// depth returns current waiters and holders.
func (g *gate) depth() (queued, inflight int64) {
	return g.queued.Load(), int64(len(g.slots))
}

// retryAfter estimates, in whole seconds (>= 1), how long until a shed
// request would plausibly be admitted: the backlog ahead of it divided
// by the gate's drain rate (slots / mean hold time).
func (g *gate) retryAfter() int {
	mean := 100 * time.Millisecond
	if n := g.holdCount.Load(); n > 0 {
		mean = time.Duration(g.holdNs.Load() / n)
	}
	backlog := g.queued.Load() + int64(len(g.slots))
	est := time.Duration(backlog+1) * mean / time.Duration(cap(g.slots))
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// tenantGates hands out one admission gate per tenant, created lazily.
type tenantGates struct {
	mu    sync.Mutex
	gates map[string]*gate
	slots int
	queue int
}

func newTenantGates(slots, queue int) *tenantGates {
	return &tenantGates{gates: map[string]*gate{}, slots: slots, queue: queue}
}

func (t *tenantGates) get(tenant string) *gate {
	t.mu.Lock()
	defer t.mu.Unlock()
	g, ok := t.gates[tenant]
	if !ok {
		g = newGate(t.slots, t.queue)
		t.gates[tenant] = g
	}
	return g
}
