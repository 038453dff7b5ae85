// The server-side kernel registry. The in-process engine needs a Go
// function for the center loop; a network request cannot ship one. A
// request therefore names its kernel: builtin problems carry their own
// (the problem field), and spec-text requests pick a generic kernel by
// name. Generic kernels work for any spec — they read only the Ctx
// contract (dependence values, validity flags, coordinates) — and are
// deterministic, so memoized results are exact.

package serve

import (
	"fmt"

	"dpgen/internal/engine"
)

// DefaultKernel is the kernel used by spec-text requests that do not
// name one.
const DefaultKernel = "mix"

// GenericKernels lists the kernels available to spec-text requests, in
// a stable order.
func GenericKernels() []string { return []string{"mix", "sum", "longest"} }

// stackDeps is how many dependences a longest call holds on its stack;
// a spec with more spills to the heap once per call.
const stackDeps = 8

// dep is one valid dependence of an offer: cell t of the run reads the
// n footprint cells from at + t*Step, stride apart.
type dep struct{ at, stride, n int64 }

// lookupKernel resolves a generic kernel by name; every generic kernel
// adapts to the spec's dependence count through the Ctx slices and
// walks full range-template footprints through DepLen/DepStride (a
// point dependence is the one-cell footprint). Each is in run form: one
// call computes all c.N cells on offer, cell t of the run sitting at
// off = t*c.Step from c.Loc and from every c.DepLoc[j].
func lookupKernel(name string) (engine.Kernel, error) {
	switch name {
	case "", DefaultKernel:
		// A contraction mix of coordinates and dependence values with
		// geometrically decaying footprint weights, so values stay
		// bounded along any dependence chain (the dpfuzz reference
		// kernel's recipe).
		return func(c *engine.Ctx) {
			n := c.N
			c.Done = n
			V, xin := c.V, c.X[c.Inner]
			for off := int64(0); n > 0; n-- {
				v := 1.0
				for k, xv := range c.X {
					if k == c.Inner {
						xv = xin
					}
					v += float64((int64(k+1)*31+xv*17)%23) * 0.0625
				}
				for j, ok := range c.DepValid {
					if !ok {
						v -= float64(j+1) * 0.125
						continue
					}
					w := 0.5 / float64(j+1)
					at, s := c.DepLoc[j]+off, c.DepStride[j]
					for m := c.DepLen[j]; m > 0; m-- {
						v += V[at] * w
						w *= 0.5
						at += s
					}
				}
				V[c.Loc+off] = v
				off += c.Step
				xin += c.Dir
			}
		}, nil
	case "sum":
		// Path counting: 1 plus the sum over every valid dependence
		// footprint cell. Can overflow to +Inf on large spaces; still
		// deterministic.
		return func(c *engine.Ctx) {
			n := c.N
			c.Done = n
			V := c.V
			for off := int64(0); n > 0; n-- {
				v := 1.0
				for j, ok := range c.DepValid {
					if !ok {
						continue
					}
					at, s := c.DepLoc[j]+off, c.DepStride[j]
					for m := c.DepLen[j]; m > 0; m-- {
						v += V[at]
						at += s
					}
				}
				V[c.Loc+off] = v
				off += c.Step
			}
		}, nil
	case "longest":
		// Longest dependence chain: max over valid dependence footprint
		// cells plus one. The engine holds each dependence's location,
		// stride and length constant along the run it offers, so the
		// valid ones are read once per call (an invalid footprint is
		// empty: DepLen[j] == 0). When each is one cell, as in every
		// constant-offset spec, a point loop skips the footprint walk.
		return func(c *engine.Ctx) {
			var buf [stackDeps]dep
			var abuf [stackDeps]int64
			deps, ats, point := buf[:0], abuf[:0], true
			for j, m := range c.DepLen {
				if m > 0 {
					deps = append(deps, dep{at: c.DepLoc[j], stride: c.DepStride[j], n: m})
					ats = append(ats, c.DepLoc[j])
					point = point && m == 1
				}
			}
			n, V, loc, step := c.N, c.V, c.Loc, c.Step
			c.Done = n
			if point {
				for off := int64(0); n > 0; n-- {
					v := 0.0
					for _, at := range ats {
						if d := V[at+off] + 1; d > v {
							v = d
						}
					}
					V[loc+off] = v
					off += step
				}
				return
			}
			for off := int64(0); n > 0; n-- {
				v := 0.0
				for _, d := range deps {
					at := d.at + off
					for m := d.n; m > 0; m-- {
						if x := V[at] + 1; x > v {
							v = x
						}
						at += d.stride
					}
				}
				V[loc+off] = v
				off += step
			}
		}, nil
	default:
		return nil, fmt.Errorf("serve: unknown kernel %q (have %v)", name, GenericKernels())
	}
}
