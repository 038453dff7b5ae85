package engine

// Ctx is the view of one run handed to a Kernel: N consecutive cells
// along the innermost loop variable, starting at the current one. It
// mirrors the symbols the generator provides to the user's center-loop
// code (Section IV-B) — the state array V, the current location loc, the
// constant-offset dependence locations loc_rj, the dependence validity
// flags is_valid_rj, the original loop variable values and the
// parameters — with the innermost loop itself handed over as well.
//
// Constant over the N cells: DepValid, DepLen, DepStride, P, and every
// entry of X and I but the one at Inner. Advancing from one cell to the
// next: Loc and every DepLoc[j] by Step, X[Inner] and I[Inner] by Dir.
// The fields describe the first cell; cell t of the run (0 <= t < N) is
// at Loc + t*Step, reads dependence j at DepLoc[j] + t*Step and has
// coordinate X[Inner] + t*Dir. A kernel that ignores N and Done
// computes exactly the current cell, which is always valid.
//
// Because DepValid, DepLen and DepStride hold over the whole run, a
// run-form kernel branches on them once per call, not once per cell,
// and can keep a loop for the runs an interior tile offers: lcs2's
// kernel (problems.LCS2) takes a loop that tests no validity when all
// three dependences are valid, knap's (problems.Knapsack) an unrolled
// loop when the whole footprint is usable, and both keep a general loop
// for boundary runs.
type Ctx struct {
	// V is the tile's state buffer, including the ghost-cell shell.
	V []float64
	// Loc is the buffer index of the current location.
	Loc int64
	// DepLoc[j] is the buffer index of template dependence j
	// (Loc plus a constant offset — the mapping functions of IV-H).
	DepLoc []int64
	// DepValid[j] reports whether dependence j stays inside the
	// iteration space (the is_valid_rj variables of IV-G). Reading
	// V[DepLoc[j]] with DepValid[j] == false yields garbage, exactly as
	// in the generated C code; the kernel must branch on it.
	DepValid []bool
	// DepStride[j] is the buffer step between consecutive footprint
	// cells of a range dependence (the stride_rj symbol): cell t of the
	// interval lives at DepLoc[j] + t*DepStride[j]. Zero for point
	// dependences. Constant within a run.
	DepStride []int64
	// DepLen[j] is the usable footprint length of dependence j at the
	// current location (the len_rj symbol): the declared count clamped
	// to the longest prefix of footprint cells inside the iteration
	// space, never negative. Point dependences get 1 when valid and 0
	// otherwise, so DepValid[j] == (DepLen[j] > 0) always; range
	// kernels loop t in [0, DepLen[j]) instead of branching on
	// DepValid.
	DepLen []int64
	// X holds the original loop variable values (Vars order).
	X []int64
	// I holds the tile-local indices (Vars order).
	I []int64
	// P holds the parameter values.
	P []int64

	// N is the number of cells on offer: the current one and the N-1
	// after it in execution order, all with the DepValid and DepLen
	// above. Always >= 1; it is 1 for every call only on the checked
	// reference path, when Config.DisableFastPath is set or the row
	// plan's overflow proof (tiling.RowPlan.OK) failed.
	N int64
	// Done is the kernel's answer: how many of the N cells it computed,
	// counted from the current one. The engine presets 1 before every
	// call and panics on a value outside [1, N]. The kernel must have
	// written exactly those Done cells; the rest of the run is offered
	// again in a later call.
	Done int64
	// Step is the signed buffer distance from one cell of a run to the
	// next, for Loc and for every DepLoc[j]. Constant for the whole job.
	Step int64
	// Inner is the index in X and I of the innermost loop variable, the
	// one that advances along a run. Constant for the whole job.
	Inner int
	// Dir is +1 or -1: how X[Inner] and I[Inner] change from one cell of
	// a run to the next. Constant for the whole job.
	Dir int64
}

// Kernel is the center-loop body. Called with a run of c.N cells, it
// computes the first k of them for a k of its choice in [1, N] — cell t
// is V[Loc + t*Step], from the dependences at DepLoc[j] + t*Step — and
// reports k in c.Done. Done is preset to 1, so the per-cell body of
// Section IV-B, which computes V[Loc] and returns, is a complete
// Kernel. It must compute the cells it takes in order t = 0, 1, ... (a
// cell of a run may depend on the ones before it), must write only the
// cells it reports — the ones it did not take come back in another
// call — and must not assume any particular cell execution order
// beyond dependence validity. Kernels are called concurrently from many
// workers on different tiles; they must not share mutable state without
// synchronization. The engine keeps no cell values once a run ends: a
// caller who needs them (a traceback, say) has the kernel write them out
// over its Done cells, cell t having coordinate X[Inner] + t*Dir.
type Kernel func(c *Ctx)
