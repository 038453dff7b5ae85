package fm

import "dpgen/internal/lin"

// ObservePrune installs f to see every system handed to the simplex
// pruner and the inequalities it kept; nil removes it.
func ObservePrune(f func(in *lin.System, kept []lin.Ineq)) { pruneObserver = f }
