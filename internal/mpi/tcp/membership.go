// Elastic membership (docs/ELASTICITY.md): the epoch stamped into DATA
// frames and the out-of-band control messages of the view-change
// protocol, whose payloads belong to the engine's coordinator.

package tcp

import (
	"fmt"

	"dpgen/internal/mpi"
)

// SetEpoch installs the membership epoch stamped into every subsequent
// outgoing DATA frame. The engine's membership coordinator calls it
// when a new view is applied; receivers use the stamp to detect edges
// sent under a previous ownership map (docs/ELASTICITY.md).
func (t *Transport) SetEpoch(e uint32) { t.epoch.Store(e) }

// ElasticCh returns the channel on which membership control messages
// (JOIN/LEAVE/EPOCH_PREP/EPOCH_ACK/EPOCH/FIN frames, plus self-sends)
// are delivered. Only the engine's membership coordinator should
// consume it.
func (t *Transport) ElasticCh() <-chan mpi.ElasticMsg { return t.elasticCh }

// SendElastic delivers a membership control message to dst. Unlike
// DATA sends it consumes no send-buffer slot — the elastic protocol
// must make progress while workers are paused and DATA slots drained.
// A send to self is delivered directly into this endpoint's own
// elastic channel, so the rank-0 coordinator handles its own messages
// through the same path as everyone else's.
func (t *Transport) SendElastic(dst int, kind byte, payload []byte) error {
	if kind < mpi.ElasticJoin || kind > mpi.ElasticFin {
		return fmt.Errorf("tcp: bad elastic kind %d", kind)
	}
	if dst == t.rank {
		select {
		case t.elasticCh <- mpi.ElasticMsg{Kind: kind, Src: t.rank, Payload: append([]byte(nil), payload...)}:
			return nil
		case <-t.stop:
			return t.errOr()
		}
	}
	if dst < 0 || dst >= t.size {
		return fmt.Errorf("tcp: elastic send to rank %d out of range [0,%d)", dst, t.size)
	}
	pc := t.conn(dst)
	if pc == nil {
		return fmt.Errorf("tcp: elastic send to rank %d: no connection", dst)
	}
	if err := pc.sendFrame(t, kElasticBase+kind, func(b []byte) []byte {
		return append(b, payload...)
	}); err != nil {
		err = fmt.Errorf("tcp: rank %d elastic send to rank %d: %w", t.rank, dst, err)
		t.fail(err)
		return err
	}
	return nil
}
