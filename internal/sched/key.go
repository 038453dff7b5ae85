package sched

import (
	"fmt"
	"math"
)

// Key packs chosen coordinates of a tile into one integer: mixed radix
// over a box, the first chosen dimension most significant, so keys order
// tiles lexicographically in those dimensions and never collide.
type Key struct {
	dims   []int
	lo, hi []int64
	mul    []uint64
	n      uint64 // keys in the box
}

// NewKey sizes a key over dims of the box lo..hi (indexed by tile
// dimension). It fails when the box holds more points than an int64.
func NewKey(dims []int, lo, hi []int64) (*Key, error) {
	n := len(dims)
	k := &Key{dims: dims, lo: make([]int64, n), hi: make([]int64, n), mul: make([]uint64, n)}
	m := int64(1)
	for i := n - 1; i >= 0; i-- {
		d := dims[i]
		k.lo[i], k.hi[i], k.mul[i] = lo[d], hi[d], uint64(m)
		if ext := hi[d] - lo[d] + 1; ext > 1 {
			if ext > math.MaxInt64/m {
				return nil, fmt.Errorf("tile space too large for integer keys (tile bounds %v..%v)", lo, hi)
			}
			m *= ext
		}
	}
	k.n = uint64(m)
	return k, nil
}

// Len returns how many keys the box holds: every key is below it.
func (k *Key) Len() uint64 { return k.n }

// Of returns tile t's key, and false when t lies outside the box. It
// does not allocate.
func (k *Key) Of(t []int64) (uint64, bool) {
	var key uint64
	for i, d := range k.dims {
		v := t[d]
		if v < k.lo[i] || v > k.hi[i] {
			return 0, false
		}
		key += uint64(v-k.lo[i]) * k.mul[i]
	}
	return key, true
}

// Delta returns the key step of the tile offset off (indexed by tile
// dimension): Of(t) − Of(t − off), modulo 2^64, for every t with t and
// t − off both in the box, because the key is linear in the
// coordinates.
func (k *Key) Delta(off []int64) uint64 {
	var d uint64
	for i, dim := range k.dims {
		d += uint64(off[dim]) * k.mul[i]
	}
	return d
}

// OfLB returns the key of coordinates lb, given in the key's own
// dimensions and inside the box: a load-balancing slab's coordinates.
func (k *Key) OfLB(lb []int64) uint64 {
	var key uint64
	for i, v := range lb {
		key += uint64(v-k.lo[i]) * k.mul[i]
	}
	return key
}
