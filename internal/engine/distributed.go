package engine

import (
	"math"

	"dpgen/internal/mpi"
)

// Distributed single-rank mode (Config.Transport). Every process of
// the job computes the same tiling, balance and ownership — all are
// deterministic functions of the spec and parameters — so the only
// cross-process coordination is the edge traffic itself plus the fixed
// collective sequence below that merges the per-rank results. The
// merge moves values without arithmetic on them (the goal value is
// selected, not reduced), so a distributed run is bit-identical to the
// in-process simulation with the same node count.

// mergedResult is the outcome of the collective result merge.
type mergedResult struct {
	goal, max       float64
	messages, elems int64
}

// awaitLocal waits for the local rank to finish its owned tiles or for
// its receiver to exit — which it does exactly when the transport fails
// or closes — so peer death aborts the run instead of stalling it
// forever on edges that will never arrive. On a transport error the
// waiter goroutine stays blocked in Wait until Run's teardown
// force-finishes the aborted nodes, at which point it exits — no
// goroutine outlives Run.
func (e *engine) awaitLocal(tr mpi.Transport, recvExit <-chan struct{}) error {
	done := make(chan struct{})
	go func() {
		e.finished.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-recvExit:
	}
	return tr.Err()
}

// mergeDistributed runs the fixed collective sequence that combines
// per-rank results: the goal-executed census (which no rank leaves
// before every rank has finished its tiles and entered, so it is the
// barrier too), the goal-value selection, the global max (localMax is
// this rank's fold, read after its finish), and the traffic totals. The
// goal value crosses ranks via a selecting reduction — the owner
// contributes its value, everyone else NaN, and the first non-NaN wins —
// so no floating-point arithmetic touches it and the result is
// bit-identical to a single-process run.
func (e *engine) mergeDistributed(tr mpi.Transport, localMax cellMax) (*mergedResult, error) {
	e.goalMu.Lock()
	goalSet, goalVal := e.goalSet, e.goalVal
	e.goalMu.Unlock()

	executed := 0.0
	if goalSet {
		executed = 1
	}
	n, err := tr.AllReduce(executed, func(a, b float64) float64 { return a + b })
	if err != nil {
		return nil, err
	}
	if n == 0 {
		// Mirrors the in-process "goal tile never executed" failure;
		// all ranks observe the same census, so all fail identically.
		return nil, &goalNeverExecutedError{tile: e.goalTile}
	}

	contrib := math.NaN()
	if goalSet {
		contrib = goalVal
	}
	goal, err := tr.AllReduce(contrib, selectNonNaN)
	if err != nil {
		return nil, err
	}

	contrib = math.NaN()
	if localMax.set {
		contrib = localMax.max
	}
	max, err := tr.AllReduce(contrib, maxIgnoringNaN)
	if err != nil {
		return nil, err
	}

	msgs, elems := tr.Stats()
	tmsgs, err := tr.AllReduce(float64(msgs), func(a, b float64) float64 { return a + b })
	if err != nil {
		return nil, err
	}
	telems, err := tr.AllReduce(float64(elems), func(a, b float64) float64 { return a + b })
	if err != nil {
		return nil, err
	}
	return &mergedResult{
		goal:     goal,
		max:      max,
		messages: int64(tmsgs),
		elems:    int64(telems),
	}, nil
}

// selectNonNaN keeps the first non-NaN operand: the reduction that
// broadcasts the goal owner's value without arithmetic on it.
func selectNonNaN(a, b float64) float64 {
	if !math.IsNaN(a) {
		return a
	}
	return b
}

// maxIgnoringNaN is max over the ranks that computed any cells
// (non-participants contribute NaN).
func maxIgnoringNaN(a, b float64) float64 {
	switch {
	case math.IsNaN(a):
		return b
	case math.IsNaN(b):
		return a
	case b > a:
		return b
	default:
		return a
	}
}

// goalNeverExecutedError reports a goal tile no rank executed.
type goalNeverExecutedError struct{ tile []int64 }

func (e *goalNeverExecutedError) Error() string {
	return "goal tile never executed on any rank"
}
