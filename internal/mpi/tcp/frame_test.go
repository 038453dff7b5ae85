package tcp

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"dpgen/internal/mpi"
)

// FuzzFrame drives the frame codec from both ends. Arbitrary bytes go
// to the DATA, control and identity decoders, which must never panic,
// must return no payload the input's length does not account for, and
// on success must re-encode to exactly the bytes they were given. A
// frame generated from the same bytes must survive encode then decode
// unchanged, float payloads compared by bit pattern so NaNs count.
func FuzzFrame(f *testing.F) {
	valid := appendDataBody(nil, dataFrame{src: 1, tag: -3, sendAt: 5, seq: 9, epoch: 2,
		meta: []int64{4, -7}, data: []float64{1.5, math.Inf(-1), math.NaN()}})
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[28:], math.MaxUint32) // declares 32 GiB of meta
	f.Add(kData, valid)
	f.Add(kData, valid[:dataHdrLen-1])
	f.Add(kData, valid[:len(valid)-3])
	f.Add(kData, huge)
	f.Add(kARVal, appendCtrlBody(nil, ctrl{kind: kARVal, seq: 3, src: 2, val: -0.5}))
	f.Add(kARRes, appendCtrlBody(nil, ctrl{kind: kARRes, seq: 3, val: math.NaN()}))
	f.Add(kARRes, []byte{1, 2, 3})
	f.Add(kHello, appendIdent(nil, kHello, 7))
	f.Add(kRejoin, appendIdent(nil, kRejoin, 0))
	f.Add(kBye, appendIdent(nil, kBye, 1))

	f.Fuzz(func(t *testing.T, kind byte, p []byte) {
		if d, err := decodeData(p); err != nil {
			if d.meta != nil || d.data != nil {
				t.Fatalf("rejected DATA body still produced a payload: %+v", d)
			}
		} else {
			if dataHdrLen+8*(len(d.meta)+len(d.data)) != len(p) {
				t.Fatalf("decoded %d meta + %d data cells from a %d-byte body", len(d.meta), len(d.data), len(p))
			}
			if re := appendDataBody(nil, d); !bytes.Equal(re, p) {
				t.Fatalf("DATA body re-encodes to %x, was %x", re, p)
			}
			mpi.PutMeta(d.meta)
			mpi.PutData(d.data)
		}
		if c, err := decodeCtrl(kind, p); err == nil {
			if re := appendCtrlBody(nil, c); !bytes.Equal(re, p) {
				t.Fatalf("control body of kind %d re-encodes to %x, was %x", kind, re, p)
			}
		}
		if k, rank, err := decodeIdent(p); err == nil {
			if re := appendIdent(nil, k, rank); !bytes.Equal(re, p) {
				t.Fatalf("identity frame re-encodes to %x, was %x", re, p)
			}
		}

		// Generated frames: every field drawn from the input.
		u64 := func(i int) uint64 {
			var w [8]byte
			if 8*i < len(p) {
				copy(w[:], p[8*i:])
			}
			return binary.LittleEndian.Uint64(w[:])
		}
		in := dataFrame{src: int(kind), tag: int(int64(u64(0))), sendAt: int64(u64(1)), seq: u64(2), epoch: uint32(u64(3))}
		cells := len(p) / 8
		for i := 0; i < cells; i++ {
			if i < cells/3 {
				in.meta = append(in.meta, int64(u64(i)))
			} else {
				in.data = append(in.data, math.Float64frombits(u64(i)))
			}
		}
		frame := appendFrame(nil, kData, func(b []byte) []byte { return appendDataBody(b, in) })
		if n := binary.LittleEndian.Uint32(frame); int(n) != len(frame)-4 || frame[4] != kData {
			t.Fatalf("frame header says %d bytes of kind %d; frame is %d bytes", n, frame[4], len(frame))
		}
		out, err := decodeData(frame[5:])
		if err != nil {
			t.Fatalf("generated DATA frame rejected: %v", err)
		}
		same := out.src == in.src && out.tag == in.tag && out.sendAt == in.sendAt && out.seq == in.seq &&
			out.epoch == in.epoch && len(out.meta) == len(in.meta) && len(out.data) == len(in.data)
		for i := 0; same && i < len(in.meta); i++ {
			same = out.meta[i] == in.meta[i]
		}
		for i := 0; same && i < len(in.data); i++ {
			same = math.Float64bits(out.data[i]) == math.Float64bits(in.data[i])
		}
		if !same {
			t.Fatalf("DATA frame changed in flight:\n sent %+v\n got  %+v", in, out)
		}
		mpi.PutMeta(out.meta)
		mpi.PutData(out.data)

		cin := ctrl{kind: kARRes, seq: uint32(u64(0)), val: math.Float64frombits(u64(1))}
		if kind&1 == 0 {
			cin.kind, cin.src = kARVal, int(uint16(u64(2)))
		}
		cout, err := decodeCtrl(cin.kind, appendCtrlBody(nil, cin))
		if err != nil || cout.kind != cin.kind || cout.seq != cin.seq || cout.src != cin.src ||
			math.Float64bits(cout.val) != math.Float64bits(cin.val) {
			t.Fatalf("control frame changed in flight: sent %+v, got %+v (%v)", cin, cout, err)
		}
	})
}
