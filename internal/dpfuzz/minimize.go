package dpfuzz

// Minimize shrinks a failing instance while fails keeps reporting it
// as failing (fails must be deterministic): it tries dropping extra constraints
// and dependencies, zeroing dependence components, shrinking tile
// widths and N, and resetting the loop order and balance dimensions to
// their defaults, iterating to a fixpoint. Every candidate it accepts
// still passes spec.Validate, so the result is a well-formed
// counterexample ready for GoLiteral.
func Minimize(in *Instance, fails func(*Instance) bool) *Instance {
	cur := in
	for changed := true; changed; {
		changed = false
		for _, cand := range candidates(cur) {
			if cand.Spec.Validate() != nil {
				continue
			}
			if fails(cand) {
				cur = cand
				changed = true
				break
			}
		}
	}
	return cur
}

// candidates proposes one-step simplifications of the instance, most
// aggressive first.
func candidates(in *Instance) []*Instance {
	var out []*Instance
	sp := in.Spec
	d := len(sp.Vars)

	// Drop an extra constraint (the first 2d are the base box).
	for i := 2 * d; i < len(sp.Constraints); i++ {
		c := clone(in)
		c.Spec.Constraints = append(c.Spec.Constraints[:i], c.Spec.Constraints[i+1:]...)
		out = append(out, c)
	}
	// Drop a dependence (at least one must remain).
	if len(sp.Deps) > 1 {
		for j := range sp.Deps {
			c := clone(in)
			c.Spec.Deps = append(c.Spec.Deps[:j], c.Spec.Deps[j+1:]...)
			out = append(out, c)
		}
	}
	// Shrink a dependence component toward zero. Range templates keep a
	// nonzero base unless a parameter part remains: a zero base would
	// put the cell itself at footprint step 0, a different shape than
	// the one being minimized.
	for j, dep := range sp.Deps {
		for k, r := range dep.Vec {
			if r == 0 {
				continue
			}
			if dep.IsRange() && dep.PVec == nil {
				nonzero := 0
				for _, v := range dep.Vec {
					if v != 0 {
						nonzero++
					}
				}
				if nonzero == 1 && (r == 1 || r == -1) {
					continue
				}
			}
			c := clone(in)
			step := int64(1)
			if r < 0 {
				step = -1
			}
			c.Spec.Deps[j].Vec[k] = r - step
			out = append(out, c)
		}
	}
	// Simplify an extended template: drop its parameter parts, turn a
	// range into its base point dependence, or shorten its count.
	for j := range sp.Deps {
		dep := &sp.Deps[j]
		if dep.PVec != nil {
			c := clone(in)
			c.Spec.Deps[j].PVec = nil
			out = append(out, c)
		}
		if dep.PDir != nil {
			c := clone(in)
			c.Spec.Deps[j].PDir = nil
			out = append(out, c)
		}
		if dep.IsRange() {
			c := clone(in)
			c.Spec.Deps[j].Dir = nil
			c.Spec.Deps[j].PDir = nil
			c.Spec.Deps[j].Len = nil
			out = append(out, c)
		}
		if dep.Len != nil && dep.Len.K > 1 {
			c := clone(in)
			c.Spec.Deps[j].Len.K--
			out = append(out, c)
		}
	}
	// Calm the bounded template parameter.
	if in.D > 1 {
		c := clone(in)
		c.D = 1
		out = append(out, c)
	}
	// Shrink a tile width.
	for k, w := range sp.TileWidths {
		if w > 1 {
			c := clone(in)
			c.Spec.TileWidths[k] = w - 1
			out = append(out, c)
		}
	}
	// Halve or decrement N.
	if in.N > 1 {
		c := clone(in)
		c.N = in.N / 2
		out = append(out, c)
		c2 := clone(in)
		c2.N = in.N - 1
		out = append(out, c2)
	}
	// Default the loop order and balance dims.
	if !sameStrings(sp.LoopOrder, sp.Vars) {
		c := clone(in)
		c.Spec.LoopOrder = append([]string(nil), sp.Vars...)
		out = append(out, c)
	}
	if len(sp.LBDims) != 1 || sp.LBDims[0] != sp.Vars[0] {
		c := clone(in)
		c.Spec.LBDims = []string{sp.Vars[0]}
		out = append(out, c)
	}
	// Calm the runtime knobs.
	if in.Nodes > 2 || in.Threads > 2 {
		c := clone(in)
		c.Nodes, c.Threads = 2, 2
		out = append(out, c)
	}
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
