// The collective: AllReduce, coordinated by rank 0 with VALUE frames in
// and RESULT frames out. It is the mesh's only collective — no rank
// leaves before every rank has entered, so it is also the barrier.

package tcp

import "fmt"

// sendCtrl writes one all-reduce control frame to pc.
func (t *Transport) sendCtrl(pc *peerConn, c ctrl) error {
	return pc.sendFrame(t, c.kind, func(b []byte) []byte { return appendCtrlBody(b, c) })
}

// AllReduce combines one float64 per rank with f, applied in rank
// order by the rank-0 coordinator, and returns the result on every
// rank. All ranks must call it collectively with the same f; it errors
// instead of hanging on a failed transport.
func (t *Transport) AllReduce(v float64, f func(a, b float64) float64) (float64, error) {
	if t.size == 1 {
		return v, t.Err()
	}
	seq := t.seq.Add(1)
	if t.rank == 0 {
		vals := make([]float64, t.size)
		vals[0] = v
		for got := 1; got < t.size; got++ {
			select {
			case c := <-t.coordCh:
				if c.seq != seq || c.src <= 0 || c.src >= t.size {
					err := fmt.Errorf("tcp: rank 0: allreduce %d: unexpected control frame (kind %d seq %d src %d)", seq, c.kind, c.seq, c.src)
					t.fail(err)
					return 0, err
				}
				vals[c.src] = c.val
			case <-t.stop:
				return 0, t.errOr()
			}
		}
		acc := vals[0]
		for i := 1; i < t.size; i++ {
			acc = f(acc, vals[i])
		}
		for _, pc := range t.snapshotConns() {
			if pc == nil {
				continue
			}
			if err := t.sendCtrl(pc, ctrl{kind: kARRes, seq: seq, val: acc}); err != nil {
				t.fail(fmt.Errorf("tcp: rank 0: allreduce result to rank %d: %w", pc.peer, err))
				return 0, t.errOr()
			}
		}
		return acc, nil
	}
	if err := t.sendCtrl(t.conn(0), ctrl{kind: kARVal, seq: seq, src: t.rank, val: v}); err != nil {
		t.fail(fmt.Errorf("tcp: rank %d: allreduce value: %w", t.rank, err))
		return 0, t.errOr()
	}
	select {
	case c := <-t.relCh:
		if c.seq != seq {
			err := fmt.Errorf("tcp: rank %d: allreduce %d: unexpected result (kind %d seq %d)", t.rank, seq, c.kind, c.seq)
			t.fail(err)
			return 0, err
		}
		return c.val, nil
	case <-t.stop:
		return 0, t.errOr()
	}
}
