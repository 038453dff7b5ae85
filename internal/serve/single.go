// A minimal singleflight: concurrent callers with one key share one
// execution and one result. This is the request-coalescing layer — N
// identical in-flight queries cost one compile and one engine run — and
// also what keeps a compile stampede on a cold cache to one compile
// per distinct spec. (The stdlib has no singleflight and the repo is
// dependency-free by policy, hence the local implementation.)

package serve

import (
	"context"
	"errors"
	"sync"
)

type flightCall struct {
	wg  sync.WaitGroup
	val any
	err error
}

// flightGroup deduplicates concurrent calls by key.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall

	// testJoined, when set by tests, is invoked when a caller joins
	// another's flight, before it waits.
	testJoined func()
}

// do runs fn once per concurrently-active key; late callers block and
// share the leader's result. shared reports whether this caller
// coalesced onto another's execution. Each caller passes the fn that
// would run under its own ctx, so a leader whose ctx ends fails only
// itself: a follower that gets the leader's context error while its
// own ctx is live runs the flight again, leading it or joining a newer
// one.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (any, error)) (val any, err error, shared bool) {
	for {
		val, err, shared = g.once(key, fn)
		if !shared || ctx.Err() != nil ||
			!(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return val, err, shared
		}
	}
}

// once is one flight: fn runs unless a call with the key is active, in
// which case the caller waits for that call's result.
func (g *flightGroup) once(key string, fn func() (any, error)) (val any, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*flightCall{}
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		if g.testJoined != nil {
			g.testJoined()
		}
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &flightCall{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.wg.Done()
	return c.val, c.err, false
}
