// The frame codec: pure functions between frames and byte slices, with
// no connection, lock or endpoint in sight — what a second transport
// speaking this wire format (or a test faking one) needs and nothing
// more. A frame is a u32 little-endian body length, then the body: one
// kind byte and a kind-specific payload (docs/TRANSPORT.md).

package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dpgen/internal/mpi"
)

// Frame kinds (the byte after the length prefix; docs/TRANSPORT.md).
// Kinds 4 and 5 carried a barrier that AllReduce made redundant; the
// numbers stay retired so the surviving kinds keep their wire bytes.
const (
	kHello     = byte(1)  // u32 dialer rank
	kData      = byte(2)  // u32 src | i64 tag | i64 sendAt | u64 seq | u32 nmeta | u32 ndata | u32 epoch | meta | data
	kAck       = byte(3)  // empty: one send-buffer slot released
	kARVal     = byte(6)  // u32 seq | u32 src | f64: all-reduce contribution
	kARRes     = byte(7)  // u32 seq | f64: all-reduce result
	kBye       = byte(8)  // empty: graceful end-of-stream
	kHeartbeat = byte(9)  // empty: liveness probe (Options.Recovery)
	kRejoin    = byte(10) // u32 rank: restarted rank reconnecting
	kClockReq  = byte(11) // i64 t0: clock-sync probe, echoed by the responder
	kClockResp = byte(12) // i64 t0 echo | i64 responder aligned unix nanos

	// Elastic membership control frames (docs/ELASTICITY.md). The wire
	// kind is kElasticBase plus the mpi.Elastic* message kind; the body
	// is an opaque payload owned by the engine's membership coordinator.
	kElasticBase = byte(12)                                  // + mpi.ElasticJoin..mpi.ElasticFin = 13..18
	kJoin        = kElasticBase + byte(mpi.ElasticJoin)      // 13
	kLeave       = kElasticBase + byte(mpi.ElasticLeave)     // 14
	kEpochPrep   = kElasticBase + byte(mpi.ElasticEpochPrep) // 15
	kEpochAck    = kElasticBase + byte(mpi.ElasticEpochAck)  // 16
	kEpoch       = kElasticBase + byte(mpi.ElasticEpoch)     // 17
	kFin         = kElasticBase + byte(mpi.ElasticFin)       // 18
)

// dataHdrLen is the fixed DATA body header size: src, tag, send
// timestamp, sequence number, meta and data lengths, and the sender's
// membership epoch (zero on meshes that never change membership).
const dataHdrLen = 40

// maxFrame bounds a frame's body length; larger lengths indicate a
// corrupt stream and fail the transport.
const maxFrame = 1 << 28

// identLen is the size of a whole identity frame: length prefix, kind
// and the dialer's rank.
const identLen = 9

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// appendFrame appends one whole frame to b: the length prefix, the
// kind byte and whatever body (nil for an empty payload) appends.
func appendFrame(b []byte, kind byte, body func([]byte) []byte) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, kind)
	if body != nil {
		b = body(b)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// dataFrame is one DATA frame's content. Decoded meta and data are
// drawn from the mpi buffer pools.
type dataFrame struct {
	src, tag int
	sendAt   int64  // sender's clock-aligned unix nanos; 0 = unaligned
	seq      uint64 // per-(sender, destination) sequence number
	epoch    uint32 // sender's membership epoch
	meta     []int64
	data     []float64
}

// appendDataBody encodes a DATA frame's payload (the bytes after the
// kind byte).
func appendDataBody(b []byte, f dataFrame) []byte {
	b = appendU32(b, uint32(f.src))
	b = appendU64(b, uint64(f.tag))
	b = appendU64(b, uint64(f.sendAt))
	b = appendU64(b, f.seq)
	b = appendU32(b, uint32(len(f.meta)))
	b = appendU32(b, uint32(len(f.data)))
	b = appendU32(b, f.epoch)
	for _, v := range f.meta {
		b = appendU64(b, uint64(v))
	}
	for _, v := range f.data {
		b = appendU64(b, math.Float64bits(v))
	}
	return b
}

// decodeData decodes a DATA frame's payload. Nothing is allocated until
// the declared lengths have been checked against len(p).
func decodeData(p []byte) (dataFrame, error) {
	if len(p) < dataHdrLen {
		return dataFrame{}, fmt.Errorf("short body (%d bytes)", len(p))
	}
	f := dataFrame{
		src:    int(binary.LittleEndian.Uint32(p[0:4])),
		tag:    int(int64(binary.LittleEndian.Uint64(p[4:12]))),
		sendAt: int64(binary.LittleEndian.Uint64(p[12:20])),
		seq:    binary.LittleEndian.Uint64(p[20:28]),
		epoch:  binary.LittleEndian.Uint32(p[36:40]),
	}
	nmeta := binary.LittleEndian.Uint32(p[28:32])
	ndata := binary.LittleEndian.Uint32(p[32:36])
	if want := dataHdrLen + 8*uint64(nmeta) + 8*uint64(ndata); want != uint64(len(p)) {
		return dataFrame{}, fmt.Errorf("length mismatch: %d bytes declared, %d present", want, len(p))
	}
	p = p[dataHdrLen:]
	f.meta = mpi.GetMeta(int(nmeta))
	for i := range f.meta {
		f.meta[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
	}
	p = p[8*nmeta:]
	f.data = mpi.GetData(int(ndata))
	for i := range f.data {
		f.data[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return f, nil
}

// ctrl is one all-reduce control frame: a rank's contribution on its
// way to rank 0 (kARVal) or rank 0's result on its way back (kARRes,
// which carries no src).
type ctrl struct {
	kind byte
	seq  uint32
	src  int
	val  float64
}

// appendCtrlBody encodes an all-reduce control frame's payload.
func appendCtrlBody(b []byte, c ctrl) []byte {
	b = appendU32(b, c.seq)
	if c.kind == kARVal {
		b = appendU32(b, uint32(c.src))
	}
	return appendU64(b, math.Float64bits(c.val))
}

// decodeCtrl decodes an all-reduce control frame's payload.
func decodeCtrl(kind byte, p []byte) (ctrl, error) {
	c := ctrl{kind: kind}
	switch {
	case kind == kARVal && len(p) == 16:
		c.src = int(binary.LittleEndian.Uint32(p[4:8]))
	case kind == kARRes && len(p) == 12:
	default:
		return c, fmt.Errorf("control frame kind %d with a %d-byte body", kind, len(p))
	}
	c.seq = binary.LittleEndian.Uint32(p[0:4])
	c.val = math.Float64frombits(binary.LittleEndian.Uint64(p[len(p)-8:]))
	return c, nil
}

// appendIdent encodes the identity frame (HELLO or REJOIN) that opens a
// dialed connection.
func appendIdent(b []byte, kind byte, rank int) []byte {
	return appendFrame(b, kind, func(b []byte) []byte { return appendU32(b, uint32(rank)) })
}

// decodeIdent validates a whole identity frame, length prefix included,
// and returns its kind and the dialer's rank.
func decodeIdent(b []byte) (kind byte, rank int, err error) {
	if len(b) != identLen || binary.LittleEndian.Uint32(b[0:4]) != identLen-4 || (b[4] != kHello && b[4] != kRejoin) {
		return 0, 0, errors.New("malformed identity frame")
	}
	return b[4], int(binary.LittleEndian.Uint32(b[5:9])), nil
}
