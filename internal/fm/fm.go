// Package fm implements Fourier–Motzkin elimination (Section IV-D of the
// paper) over systems of linear inequalities with exact integer
// coefficients.
//
// Eliminating a variable pairs every lower bound on it with every upper
// bound, so the constraint count can grow as n^2/4 per step; as the paper
// notes, duplicate and redundant constraints must be removed after each
// iteration to keep the method practical. This package removes exact
// duplicates always, and optionally prunes redundant inequalities with an
// exact rational simplex (dpgen/internal/simplex).
//
// All coefficients are int64 and every combination step is
// overflow-checked (dpgen/internal/ints). Pruning hands the whole
// system to simplex.Prune once: one feasibility solve and then one
// re-optimisation per inequality on a single small-rational tableau,
// walking the inequalities in order and dropping each one the remaining
// ones imply — not a fresh LP per candidate. Which inequalities survive
// is a property of the system (each decision is the sign of an exact LP
// optimum), so the synthesized nests do not depend on how the pruner
// solves them.
package fm

import (
	"fmt"

	"dpgen/internal/ints"
	"dpgen/internal/lin"
	"dpgen/internal/simplex"
)

// PruneLevel selects how aggressively redundant inequalities are removed
// after each elimination step.
type PruneLevel int

const (
	// PruneAuto uses simplex pruning only when the system grows beyond a
	// size threshold; the right default for program generation.
	PruneAuto PruneLevel = iota
	// PruneSyntactic removes exact duplicates only.
	PruneSyntactic
	// PruneSimplex always runs the full redundancy elimination.
	PruneSimplex
)

// autoThreshold is the constraint count beyond which PruneAuto switches
// from syntactic deduplication to full simplex-based pruning.
const autoThreshold = 24

// Options configures elimination.
type Options struct {
	Prune PruneLevel
}

// ErrInfeasible is returned when elimination derives a constant
// contradiction, i.e. the system has no integer (indeed no rational)
// points for any parameter values.
var ErrInfeasible = fmt.Errorf("fm: system is infeasible")

// Eliminate returns a system over the same space in which no inequality
// involves name. The integer points of the result contain the projection
// of the input's integer points (exactly its rational shadow).
func Eliminate(sys *lin.System, name string, opts Options) (*lin.System, error) {
	idx := sys.Space().Index(name)
	if idx < 0 {
		return nil, fmt.Errorf("fm: Eliminate(%q): not in space %v", name, sys.Space())
	}
	var lower, upper []lin.Ineq // coef > 0 (lower bounds), coef < 0 (upper bounds)
	out := lin.NewSystem(sys.Space())
	for _, q := range sys.Ineqs {
		switch c := q.CoeffAt(idx); {
		case c > 0:
			lower = append(lower, q)
		case c < 0:
			upper = append(upper, q)
		default:
			out.Ineqs = append(out.Ineqs, q)
		}
	}
	for _, l := range lower {
		a := l.CoeffAt(idx) // > 0
		for _, u := range upper {
			b := -u.CoeffAt(idx) // > 0
			g := ints.GCD(a, b)
			// (b/g)*l + (a/g)*u has zero coefficient on name.
			comb := l.Expr.Scale(b / g).Add(u.Expr.Scale(a / g))
			q := lin.Ineq{Expr: comb}.Tighten()
			if q.IsContradiction() {
				return nil, ErrInfeasible
			}
			if q.IsTautology() {
				continue
			}
			out.Ineqs = append(out.Ineqs, q)
		}
	}
	if out.Dedup() {
		return nil, ErrInfeasible
	}
	prune(out, opts)
	return out, nil
}

// EliminateAll eliminates each name in order, pruning between steps.
func EliminateAll(sys *lin.System, names []string, opts Options) (*lin.System, error) {
	cur := sys
	var err error
	for _, n := range names {
		cur, err = Eliminate(cur, n, opts)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// Simplify removes duplicates and (per options) redundant inequalities
// without eliminating anything.
func Simplify(sys *lin.System, opts Options) (*lin.System, error) {
	out := sys.Clone()
	if out.Dedup() {
		return nil, ErrInfeasible
	}
	prune(out, opts)
	return out, nil
}

func prune(sys *lin.System, opts Options) {
	switch opts.Prune {
	case PruneSyntactic:
		return
	case PruneAuto:
		if len(sys.Ineqs) <= autoThreshold {
			return
		}
	}
	// simplex.Prune leaves an infeasible system whole. Parametrically
	// empty systems (e.g. a pack slab for a tile offset no real tile index
	// ever crosses) are legitimate inputs here; left intact, their
	// emptiness surfaces correctly as empty loop bounds or a constant
	// contradiction in a later elimination step.
	kept := simplex.Prune(sys)
	if pruneObserver != nil {
		pruneObserver(sys, kept)
	}
	sys.Ineqs = kept
}

// pruneObserver, set only by tests, sees every system handed to the
// pruner and what it kept.
var pruneObserver func(in *lin.System, kept []lin.Ineq)
