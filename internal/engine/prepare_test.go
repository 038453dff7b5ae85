package engine

import (
	"strings"
	"testing"

	"dpgen/internal/balance"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// prepGridSpec is a small 2-D grid problem for the prepare tests.
func prepGridSpec(t *testing.T) *spec.Spec {
	t.Helper()
	sp, err := spec.New("prepgrid", []string{"N"}, []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	sp.MustConstrain("0 <= x <= N")
	sp.MustConstrain("0 <= y <= N")
	sp.AddDep("right", 1, 0)
	sp.AddDep("down", 0, 1)
	sp.TileWidths = []int64{4, 4}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	return sp
}

func prepKernel(c *Ctx) {
	v := 1.0
	if c.DepValid[0] {
		v += 0.5 * c.V[c.DepLoc[0]]
	}
	if c.DepValid[1] {
		v += 0.25 * c.V[c.DepLoc[1]]
	}
	c.V[c.Loc] = v
}

// TestPreparedRunBitIdentical requires Prepared.Run to match a plain
// Run bit for bit, including when one Prepared backs several
// configurations and concurrent runs.
func TestPreparedRunBitIdentical(t *testing.T) {
	tl, err := tiling.New(prepGridSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	params := []int64{30}
	prep, err := Prepare(tl, params, 2, balance.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 3} {
		cfg := Config{Nodes: 2, Threads: threads}
		want, err := Run(tl, prepKernel, params, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := prep.Run(prepKernel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value {
			t.Errorf("threads=%d: prepared value %v != plain value %v", threads, got.Value, want.Value)
		}
		var cells, wantCells int64
		for i := range got.Stats {
			cells += got.Stats[i].CellsComputed
			wantCells += want.Stats[i].CellsComputed
		}
		if cells != wantCells {
			t.Errorf("threads=%d: prepared cells %d != plain cells %d", threads, cells, wantCells)
		}
	}

	// Concurrent reuse of one Prepared.
	const par = 4
	errs := make(chan error, par)
	vals := make(chan float64, par)
	for i := 0; i < par; i++ {
		go func() {
			res, err := prep.Run(prepKernel, Config{Nodes: 2, Threads: 2})
			if err != nil {
				errs <- err
				vals <- 0
				return
			}
			errs <- nil
			vals <- res.Value
		}()
	}
	var first float64
	for i := 0; i < par; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		v := <-vals
		if i == 0 {
			first = v
		} else if v != first {
			t.Errorf("concurrent prepared runs disagree: %v != %v", v, first)
		}
	}
}

// TestPreparedRunConfigMismatch requires a clear error when the run
// config contradicts what the program was prepared for.
func TestPreparedRunConfigMismatch(t *testing.T) {
	tl, err := tiling.New(prepGridSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Prepare(tl, []int64{12}, 2, balance.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Run(prepKernel, Config{Nodes: 3}); err == nil || !strings.Contains(err.Error(), "prepared for 2 nodes") {
		t.Errorf("node mismatch: got %v, want prepared-for-2-nodes error", err)
	}
	if _, err := prep.Run(prepKernel, Config{Nodes: 2, Balance: balance.Hyperplane}); err == nil || !strings.Contains(err.Error(), "balance method") {
		t.Errorf("balance mismatch: got %v, want balance-method error", err)
	}
	// A Prepared is balanced over every rank; an elastic run that starts
	// from a subset needs its own balance.
	if err := prep.check(Config{Nodes: 2}, []int{0}); err == nil || !strings.Contains(err.Error(), "prepared for members [0 1]") {
		t.Errorf("member mismatch: got %v, want prepared-for-members error", err)
	}
	if _, err := Prepare(tl, []int64{1, 2}, 1, balance.Prefix); err == nil {
		t.Error("Prepare with wrong param arity: got nil error")
	}
}
