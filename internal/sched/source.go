// Package sched is the problem-independent tile scheduler of Section V,
// written once for every runtime in the repository: the ready pool
// (per-worker shards holding a Figure 5 priority heap, randomized
// stealing, a lost-wakeup-free park). It is generic over the runtime's
// per-tile state, so dpgen/internal/engine instantiates it with
// slice-backed tiles, a generated program with fixed-size arrays and
// dpgen/internal/simsched with its cost-model state, each without
// interface dispatch.
//
// The package imports only the standard library, because generated
// programs do not import it: codegen.Generate emits the text of the
// files below into the program (Sources), so the scheduler a generated
// program runs is the one the engine compiles and the tests here race.
package sched

import _ "embed"

// The scheduler's files as compiled here. source.go itself (which needs
// the embed package) is not part of a generated program.
var (
	//go:embed heap.go
	heapGo string
	//go:embed pool.go
	poolGo string
)

// Source is one file of the scheduler.
type Source struct {
	Name string
	Text string
}

// Sources returns the scheduler's source files in name order.
func Sources() []Source {
	return []Source{{"heap.go", heapGo}, {"pool.go", poolGo}}
}
