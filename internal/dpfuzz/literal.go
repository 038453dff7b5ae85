package dpfuzz

import (
	"fmt"
	"strings"

	"dpgen/internal/balance"
	"dpgen/internal/engine"
	"dpgen/internal/spec"
)

// GoLiteral renders the instance as compilable Go source that rebuilds
// it exactly — the form counterexamples are reported in and committed
// to the regression table. Constraints round-trip through the spec
// constraint syntax (lin.Ineq.String emits it).
func GoLiteral(in *Instance) string {
	sp := in.Spec
	var b strings.Builder
	fmt.Fprintf(&b, "in := &dpfuzz.Instance{\n")
	if in.D != 0 {
		fmt.Fprintf(&b, "\tSeed: %#x, N: %d, D: %d,\n", in.Seed, in.N, in.D)
	} else {
		fmt.Fprintf(&b, "\tSeed: %#x, N: %d,\n", in.Seed, in.N)
	}
	fmt.Fprintf(&b, "\tNodes: %d, Threads: %d, SendBufs: %d, RecvBufs: %d,\n",
		in.Nodes, in.Threads, in.SendBufs, in.RecvBufs)
	fmt.Fprintf(&b, "\tPriority: %s, Balance: %s,\n",
		priorityName(in.Priority), balanceName(in.Balance))
	fmt.Fprintf(&b, "}\n")
	fmt.Fprintf(&b, "sp := spec.MustNew(%q, %s, %s)\n", sp.Name, stringsLit(sp.Params), stringsLit(sp.Vars))
	for _, q := range sp.Constraints {
		fmt.Fprintf(&b, "sp.MustConstrain(%q)\n", q.String())
	}
	for _, pb := range sp.ParamBounds {
		fmt.Fprintf(&b, "sp.Bound(%q, %d, %d)\n", pb.Name, pb.Lo, pb.Hi)
	}
	for j := range sp.Deps {
		if !sp.Deps[j].Extended() {
			fmt.Fprintf(&b, "sp.AddDep(%q%s)\n", sp.Deps[j].Name, int64sArgs(sp.Deps[j].Vec))
			continue
		}
		// Extended templates round-trip through the input syntax, the
		// same canonical form Parse and dpserve use.
		name, base, dir, count := sp.FormatDep(j)
		fmt.Fprintf(&b, "sp.MustAddDepSpec(%q, %q, %q, %q)\n", name, base, dir, count)
	}
	if len(sp.LoopOrder) > 0 {
		fmt.Fprintf(&b, "sp.LoopOrder = %s\n", stringsLit(sp.LoopOrder))
	}
	if len(sp.LBDims) > 0 {
		fmt.Fprintf(&b, "sp.LBDims = %s\n", stringsLit(sp.LBDims))
	}
	if len(sp.TileWidths) > 0 {
		fmt.Fprintf(&b, "sp.TileWidths = %s\n", int64sLit(sp.TileWidths))
	}
	if sp.Elem != "" {
		fmt.Fprintf(&b, "sp.Elem = %q\n", sp.Elem)
	}
	if sp.Goal != nil {
		fmt.Fprintf(&b, "sp.Goal = %s\n", int64sLit(sp.Goal))
	}
	fmt.Fprintf(&b, "in.Spec = sp\n")
	return b.String()
}

func stringsLit(ss []string) string {
	quoted := make([]string, len(ss))
	for i, s := range ss {
		quoted[i] = fmt.Sprintf("%q", s)
	}
	return "[]string{" + strings.Join(quoted, ", ") + "}"
}

func int64sLit(vs []int64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprint(v)
	}
	return "[]int64{" + strings.Join(parts, ", ") + "}"
}

func int64sArgs(vs []int64) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, ", %d", v)
	}
	return b.String()
}

func priorityName(p engine.Priority) string {
	switch p {
	case engine.ColumnMajor:
		return "engine.ColumnMajor"
	case engine.LevelSet:
		return "engine.LevelSet"
	case engine.FIFO:
		return "engine.FIFO"
	}
	return fmt.Sprintf("engine.Priority(%d)", p)
}

func balanceName(m balance.Method) string {
	switch m {
	case balance.Prefix:
		return "balance.Prefix"
	case balance.Hyperplane:
		return "balance.Hyperplane"
	}
	return fmt.Sprintf("balance.Method(%d)", m)
}

// clone deep-copies an instance so the minimizer can mutate candidates
// freely.
func clone(in *Instance) *Instance {
	out := *in
	// Candidates mutate the Spec, so the clone must rebuild its own
	// pipeline artifacts from scratch.
	out.nest, out.nestErr = nil, nil
	out.tl, out.tlErr = nil, nil
	sp, err := spec.New(in.Spec.Name, append([]string(nil), in.Spec.Params...), append([]string(nil), in.Spec.Vars...))
	if err != nil {
		panic(err)
	}
	for _, q := range in.Spec.Constraints {
		// Round-trip through the constraint syntax so the clone's
		// expressions are bound to the clone's own space.
		if err := sp.Constrain(q.String()); err != nil {
			panic(err)
		}
	}
	for _, pb := range in.Spec.ParamBounds {
		sp.Bound(pb.Name, pb.Lo, pb.Hi)
	}
	for j := range in.Spec.Deps {
		if !in.Spec.Deps[j].Extended() {
			dep := in.Spec.Deps[j]
			sp.AddDep(dep.Name, append([]int64(nil), dep.Vec...)...)
			continue
		}
		// Extended templates round-trip through the canonical input
		// syntax, like GoLiteral renders them.
		name, base, dir, count := in.Spec.FormatDep(j)
		sp.MustAddDepSpec(name, base, dir, count)
	}
	sp.LoopOrder = append([]string(nil), in.Spec.LoopOrder...)
	sp.LBDims = append([]string(nil), in.Spec.LBDims...)
	sp.TileWidths = append([]int64(nil), in.Spec.TileWidths...)
	sp.Elem = in.Spec.Elem
	if in.Spec.Goal != nil {
		sp.Goal = append([]int64(nil), in.Spec.Goal...)
	}
	out.Spec = sp
	return &out
}
