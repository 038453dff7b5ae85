// Package sched is the problem-independent tile runtime of Section V,
// written once for every runtime in the repository: the ready pool
// (per-worker shards holding a Figure 5 priority heap, randomized
// stealing, a lost-wakeup-free park), the pending-tile table (pages of
// entry slots found by two integer keys, a lock-free countdown, pages
// recycled once complete) and the per-worker stack of edge buffers. It
// is generic over the runtime's per-tile state, so
// dpgen/internal/engine instantiates it with slice-backed tiles, a
// generated program with fixed-size arrays and dpgen/internal/simsched
// with its cost-model state, each without interface dispatch.
//
// The package imports only the standard library, because generated
// programs do not import it: codegen.Generate emits the text of the
// files below into the program (Sources), so the runtime a generated
// program runs is the one the engine compiles and the tests here race.
package sched

import "embed"

// The package's files as compiled here. source.go itself (which needs
// the embed package) is not part of a generated program.
//
//go:embed heap.go key.go pool.go table.go
var files embed.FS

// Source is one file of the package.
type Source struct {
	Name string
	Text string
}

// Sources returns the package's source files in name order.
func Sources() []Source {
	entries, _ := files.ReadDir(".")
	out := make([]Source, len(entries))
	for i, e := range entries {
		text, _ := files.ReadFile(e.Name())
		out[i] = Source{e.Name(), string(text)}
	}
	return out
}
