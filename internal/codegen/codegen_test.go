package codegen

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dpgen/internal/problems"
	"dpgen/internal/sched"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

func TestGenerateBandit2Structure(t *testing.T) {
	p := problems.Bandit2()
	src, err := Generate(p.Spec, Options{ParamDefaults: []int64{40}})
	if err != nil {
		t.Fatal(err)
	}
	code := string(src)
	for _, want := range []string{
		"package main",
		"const dpDims = 4",
		"const dpNumDeps = 4",
		"func dpTileInSpace(",
		"func dpForEachTile(",
		"func dpTileCellCount(",
		"func dpExecTile(",
		"func dpPackEdge(",
		"func dpUnpackEdge(",
		"func dpBuildOwnership(",
		"func main()",
		"is_valid_r1 :=",
		"loc_r4 := loc +",
		"V[loc] = max(V1, V2)", // nothing from the paper's figure...
	} {
		if !strings.Contains(code, want) && want != "V[loc] = max(V1, V2)" {
			t.Errorf("generated code missing %q", want)
		}
	}
	// The user kernel must be inlined verbatim (modulo indentation).
	if !strings.Contains(code, "p1*(1+V[loc_r1]) + (1-p1)*V[loc_r2]") {
		t.Error("kernel code not inlined")
	}
	// Loops in the tile executor run downward (positive templates).
	if !strings.Contains(code, "i0--") {
		t.Error("descending loop for s1 missing")
	}
}

func TestGenerateRequiresKernel(t *testing.T) {
	sp := spec.MustNew("nok", []string{"N"}, []string{"x"})
	sp.MustConstrain("0 <= x <= N")
	sp.AddDep("r", 1)
	if _, err := Generate(sp, Options{}); err == nil {
		t.Error("missing kernel code should fail")
	}
}

// buildProgram generates and compiles a spec's program and returns the
// binary's path.
func buildProgram(t *testing.T, sp *spec.Spec) string {
	t.Helper()
	src, err := Generate(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "main.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module gen\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "prog")
	args := []string{"build", "-o", bin}
	if raceEnabled {
		args = append(args, "-race")
	}
	cmd := exec.Command("go", append(args, ".")...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build failed: %v\n%s", err, out)
	}
	return bin
}

// runProgram executes a built program and returns its output.
func runProgram(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("generated program failed: %v\n%s", err, out)
	}
	return string(out)
}

// buildAndRun generates, compiles and executes a program, returning its
// parsed "value" output.
func buildAndRun(t *testing.T, sp *spec.Spec, args ...string) float64 {
	t.Helper()
	return buildAndRunField(t, sp, "value", args...)
}

func TestGeneratedBandit2Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a program")
	}
	p := problems.Bandit2()
	N := int64(14)
	got := buildAndRun(t, p.Spec, "-N", fmt.Sprint(N), "-nodes", "2", "-threads", "2")
	want := p.Serial([]int64{N})
	if got != want {
		t.Fatalf("generated program value %v, want %v (bit-exact)", got, want)
	}
}

func TestGeneratedEditDistanceRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a program")
	}
	p := problems.EditDistanceSeeded(1, 2)
	got := buildAndRun(t, p.Spec,
		"-L1", fmt.Sprint(p.DefaultParams[0]),
		"-L2", fmt.Sprint(p.DefaultParams[1]),
		"-nodes", "3", "-threads", "2", "-sendbufs", "1", "-recvbufs", "1")
	want := p.Serial(p.DefaultParams)
	if got != want {
		t.Fatalf("generated program value %v, want %v", got, want)
	}
}

func TestGeneratedProgramSelfContained(t *testing.T) {
	// The generated source must not import anything beyond the stdlib
	// (no dpgen packages).
	p := problems.Bandit2()
	src, err := Generate(p.Spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(src), "dpgen/") {
		t.Error("generated code imports dpgen packages; it must be self-contained")
	}
}

func TestRenderExprForms(t *testing.T) {
	p := problems.Bandit2()
	src, err := Generate(p.Spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The innermost bound N - s1 - f1 - s2 must appear in tile-space or
	// local bounds with tile/local renaming applied.
	if !strings.Contains(string(src), "N") {
		t.Error("parameter name lost in rendering")
	}
}

// TestGeneratedFloat32Elem: the elem directive changes the generated
// state array type; path counts below 2^24 remain exact in float32.
func TestGeneratedFloat32Elem(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a program")
	}
	sp := spec.MustNew("paths32", []string{"N"}, []string{"x", "y"})
	sp.MustConstrain("0 <= x <= N")
	sp.MustConstrain("0 <= y <= N")
	sp.AddDep("r", 1, 0)
	sp.AddDep("d", 0, 1)
	sp.TileWidths = []int64{4, 4}
	sp.Elem = "float32"
	sp.KernelCode = `var v dpElem
if x == N && y == N {
	v = 1
}
if is_valid_r {
	v += V[loc_r]
}
if is_valid_d {
	v += V[loc_d]
}
V[loc] = v`
	got := buildAndRun(t, sp, "-N", "10", "-nodes", "2", "-threads", "2")
	// C(20,10) = 184756 monotone lattice paths.
	if got != 184756 {
		t.Fatalf("float32 program value %v, want 184756", got)
	}
}

// buildAndRunField generalizes buildAndRun to parse any output field.
func buildAndRunField(t *testing.T, sp *spec.Spec, field string, args ...string) float64 {
	t.Helper()
	return outputField(t, runProgram(t, buildProgram(t, sp), args...), field)
}

// outputField returns the float a program printed on its "<field> ..." line.
func outputField(t *testing.T, out, field string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, field+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("bad %s line %q: %v", field, line, err)
			}
			return v
		}
	}
	t.Fatalf("no %s line in output:\n%s", field, out)
	return 0
}

// nodeStats parses the "node <id> key value ..." lines -stats prints,
// one map per node.
func nodeStats(t *testing.T, out string) []map[string]int64 {
	t.Helper()
	var nodes []map[string]int64
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "node" {
			continue
		}
		stat := map[string]int64{}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseInt(f[i+1], 10, 64)
			if err != nil {
				t.Fatalf("bad stats line %q: %v", line, err)
			}
			stat[f[i]] = v
		}
		nodes = append(nodes, stat)
	}
	return nodes
}

// delannoy is the serial reference of specs/grid2.dps, which has no
// registry problem: lattice paths from (0,0) to (N,N) by right, down and
// diagonal steps.
func delannoy(params []int64) float64 {
	n := int(params[0])
	row := make([]float64, n+1) // V(x+1, .) until overwritten with V(x, .)
	for x := n; x >= 0; x-- {
		diag := 0.0
		for y := n; y >= 0; y-- {
			right := row[y]
			switch {
			case x == n && y == n:
				row[y] = 1
			case y == n:
				row[y] = right
			default:
				row[y] = (right + row[y+1]) + diag
			}
			diag = right
		}
	}
	return row[0]
}

// TestGeneratedAllBuiltins is the edge path's oracle: every registry
// problem (each must carry kernel source) and every specs/*.dps file is
// generated, built once and run at 1-3 nodes x 1-2 threads - with one
// send and one receive buffer wherever edges cross nodes, so recycled
// buffers are in flight under backpressure - and must print the serial
// reference's answer bit for bit. Between them the programs cross the
// pack/unpack nests with unit and range templates, 2 to 6 dimensions,
// diagonal tile dependences and multi-tile reaches.
func TestGeneratedAllBuiltins(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles programs")
	}
	type prog struct {
		name   string
		sp     *spec.Spec
		serial func([]int64) float64
		params []int64
		field  string
	}
	var progs []prog
	for _, name := range problems.Names() {
		p, err := problems.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Spec.KernelCode == "" {
			t.Fatalf("%s: no kernel source", name)
		}
		field := "value"
		if p.UseMax {
			field = "max"
		}
		progs = append(progs, prog{name, p.Spec, p.Serial, p.DefaultParams, field})
	}
	files, err := filepath.Glob("../../specs/*.dps")
	if err != nil || len(files) == 0 {
		t.Fatalf("no spec files: %v", err)
	}
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spec.Parse(string(text))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		pr := prog{name: filepath.Base(path), sp: sp, serial: delannoy, params: []int64{37}, field: "value"}
		if sp.Name != "grid2" {
			p, err := problems.Get(sp.Name)
			if err != nil {
				t.Fatalf("%s: no serial reference: %v", path, err)
			}
			pr.serial, pr.params = p.Serial, p.DefaultParams
		}
		progs = append(progs, pr)
	}
	for _, pr := range progs {
		t.Run(pr.name, func(t *testing.T) {
			bin := buildProgram(t, pr.sp)
			want := pr.serial(pr.params)
			var params []string
			for i, name := range pr.sp.Params {
				params = append(params, "-"+name, fmt.Sprint(pr.params[i]))
			}
			for nodes := 1; nodes <= 3; nodes++ {
				for threads := 1; threads <= 2; threads++ {
					args := append([]string{"-nodes", fmt.Sprint(nodes), "-threads", fmt.Sprint(threads)}, params...)
					if nodes > 1 {
						args = append(args, "-sendbufs", "1", "-recvbufs", "1")
					}
					if got := outputField(t, runProgram(t, bin, args...), pr.field); got != want {
						t.Errorf("%v: %s %v, serial reference %v (want bit-identical)", args, pr.field, got, want)
					}
				}
			}
		})
	}
}

// TestGeneratedBuffersRecycle: a program allocates the edge buffers that
// are live at once, not one per edge. On one worker the allocations are
// bounded by the peak of buffered edges plus what the free stack lets
// go, are a fraction of the edges moved, and repeat exactly. The
// delivery counts are pinned: one node × one worker moves every edge
// locally in one order, and on two nodes the counts that do not depend
// on timing split as the ownership scan assigns the slabs.
func TestGeneratedBuffersRecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a program")
	}
	sp := problems.Bandit2().Spec
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	bin := buildProgram(t, sp)
	var first int64
	for round := 0; round < 2; round++ {
		nodes := nodeStats(t, runProgram(t, bin, "-N", "24", "-threads", "1", "-stats"))
		if len(nodes) != 1 {
			t.Fatalf("%d node lines, want 1", len(nodes))
		}
		st := nodes[0]
		allocs, edges := st["bufs_alloc"], st["local"]+st["sent"]
		if allocs == 0 || edges == 0 || st["peak_edges"] == 0 {
			t.Fatalf("stats not counted: %v", st)
		}
		if limit := st["peak_edges"]*3/2 + 2*int64(len(tl.TileDeps)); allocs > limit {
			t.Errorf("bufs_alloc %d > %d (1.5 x peak_edges %d + the free stack's bound)", allocs, limit, st["peak_edges"])
		}
		if float64(allocs) >= 0.35*float64(edges) {
			t.Errorf("bufs_alloc %d for %d edges: buffers are not recycling", allocs, edges)
		}
		if round == 0 {
			first = allocs
		} else if allocs != first {
			t.Errorf("bufs_alloc %d then %d on identical one-worker runs", first, allocs)
		}
		wantStats(t, "1 x 1", st, map[string]int64{"tiles": 70, "cells": 20475, "local": 140, "peak_edges": 39})
	}
	nodes := nodeStats(t, runProgram(t, bin, "-N", "24", "-nodes", "2", "-threads", "1", "-stats"))
	if len(nodes) != 2 {
		t.Fatalf("%d node lines, want 2", len(nodes))
	}
	wantStats(t, "2 x 1 node 0", nodes[0], map[string]int64{"tiles": 25, "cells": 11550, "sent": 0, "recv": 22, "local": 42})
	wantStats(t, "2 x 1 node 1", nodes[1], map[string]int64{"tiles": 45, "cells": 8925, "sent": 22, "recv": 0, "local": 76})
}

// wantStats compares the named counters of a node's stats line.
func wantStats(t *testing.T, name string, got, want map[string]int64) {
	t.Helper()
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %s %d, want %d", name, k, got[k], v)
		}
	}
}

// edgeFuncs cuts dpPackEdge and dpUnpackEdge out of a generated program.
func edgeFuncs(t *testing.T, src string) (pack, unpack string) {
	t.Helper()
	cut := func(name string) string {
		_, rest, ok := strings.Cut(src, "\nfunc "+name+"(")
		body, _, ok2 := strings.Cut(rest, "\n}\n")
		if !ok || !ok2 {
			t.Fatalf("no %s in the generated program", name)
		}
		return body
	}
	return cut("dpPackEdge"), cut("dpUnpackEdge")
}

// TestGeneratedPackIsRunForm: each tile dependence's nest moves its
// innermost level with one statement - a copy, or a single store where
// the level is one cell wide - and never appends.
func TestGeneratedPackIsRunForm(t *testing.T) {
	for _, sp := range []*spec.Spec{problems.Bandit2().Spec, problems.MCM().Spec, fuzzSeed2Spec(t)} {
		tl, err := tiling.New(sp)
		if err != nil {
			t.Fatal(err)
		}
		src, err := Generate(sp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pack, unpack := edgeFuncs(t, string(src))
		for _, fn := range []struct{ name, body, store string }{
			{"dpPackEdge", pack, "out[idx] = "},
			{"dpUnpackEdge", unpack, " = data[idx]"},
		} {
			if strings.Contains(fn.body, "append(") {
				t.Errorf("%s: %s appends", sp.Name, fn.name)
			}
			copies, stores := strings.Count(fn.body, "copy("), strings.Count(fn.body, fn.store)
			if copies+stores != len(tl.TileDeps) || copies == 0 {
				t.Errorf("%s: %s has %d copies + %d stores for %d tile dependences", sp.Name, fn.name, copies, stores, len(tl.TileDeps))
			}
			if loops := strings.Count(fn.body, "for i"); loops != len(tl.TileDeps)*(len(sp.Vars)-1) {
				t.Errorf("%s: %s has %d loops, want every level but the innermost of %d nests", sp.Name, fn.name, loops, len(tl.TileDeps))
			}
		}
	}

	// tiling.New lays the innermost loop variable out at stride 1. Were
	// that to change, a run would not be contiguous: the nest must fall
	// back to an element loop, still without append.
	sp := problems.LCS2Seeded(5).Spec
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	slices.Reverse(tl.Strides)
	g := &gen{sp: sp, tl: tl}
	g.emitPack()
	text := g.b.String()
	if strings.Contains(text, "append(") || strings.Contains(text, "copy(") ||
		strings.Count(text, "out[idx] = ") != len(tl.TileDeps) || !strings.Contains(text, "for i1 := ") {
		t.Errorf("non-unit-stride innermost level is not an element loop:\n%s", text)
	}
}

// TestEmbedsSchedulerSource: the program's scheduler is the text of
// internal/sched's files, not a copy written here: every file's
// declarations appear verbatim, and runtimeSrc defines no queue, steal
// or park routine of its own.
func TestEmbedsSchedulerSource(t *testing.T) {
	src, err := Generate(problems.Bandit2().Spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	files := sched.Sources()
	if len(files) == 0 {
		t.Fatal("internal/sched embeds no files")
	}
	for _, f := range files {
		imports, body, err := splitSource(f.Name, f.Text)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(body, "package sched") || len(body) < 100 {
			t.Fatalf("%s: bad split, body starts %.60q", f.Name, body)
		}
		if !bytes.Contains(src, []byte(body)) {
			t.Errorf("generated program does not contain %s verbatim", f.Name)
		}
		for _, path := range imports {
			if !bytes.Contains(src, []byte("\t\""+path+"\"\n")) {
				t.Errorf("generated program does not import %q, which %s needs", path, f.Name)
			}
		}
	}
	for _, def := range []string{
		"Less(", "popLocal", "stealOne", "xorshift", "func (h ", "heap.",
		"cond.Wait", "cond.Signal", "sleepers", "epoch",
		"func (n *dpNode) enqueue", "func (n *dpNode) popAny", "14695981039346656037",
	} {
		if strings.Contains(runtimeSrc, def) {
			t.Errorf("runtimeSrc still carries scheduler code: %q", def)
		}
	}
}

// TestGeneratedPopAccounting: in a generated program, as in the engine
// (TestPopAccounting), every executed tile is a local pop or a steal at
// any thread count, and a lone worker steals nothing.
func TestGeneratedPopAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a program")
	}
	bin := buildProgram(t, problems.Bandit2().Spec)
	for _, threads := range []int{1, 2, 4} {
		out := runProgram(t, bin, "-N", "24", "-nodes", "2", "-threads", fmt.Sprint(threads), "-stats")
		nodes := nodeStats(t, out)
		for _, stat := range nodes {
			if stat["tiles"] == 0 || stat["steals"]+stat["local_pops"] != stat["tiles"] {
				t.Errorf("threads=%d: %v: steals + local_pops != tiles", threads, stat)
			}
			if threads == 1 && stat["steals"] != 0 {
				t.Errorf("threads=1: %v: a lone worker stole", stat)
			}
		}
		if len(nodes) != 2 {
			t.Fatalf("threads=%d: %d node lines in:\n%s", threads, len(nodes), out)
		}
	}
}

// readiedTileTest drives a generated program's node in-process, as the
// engine's TestReadiedTileStaysOnItsWorker drives the engine's: one node
// with two workers' shards, of which worker 1 runs the whole job on the
// test goroutine. It steals only the seeded tiles, which main places by
// key hash, and pops every tile it readied itself from its own shard.
const readiedTileTest = `package main

import "testing"

func TestReadiedTileStaysOnItsWorker(t *testing.T) {
	L1, L2 = 255, 255
	dpUserInit()
	g := &dpGlobal{nodes: make([]*dpNode, 1)}
	if err := dpBuildOwnership(g); err != nil {
		t.Fatal(err)
	}
	offsets := make([][]int64, dpNumTileDeps)
	for j := range offsets {
		offsets[j] = dpTileDepOffsets[j][:]
	}
	n := &dpNode{
		pending: NewTable[dpTile](g.slab, g.rest, g.expect, offsets),
		pool:    NewPool[dpTile](2, ColumnMajor),
		owned:   g.ownedTotal[0],
		workers: make([]*dpWorker, 2),
	}
	g.nodes[0] = n
	g.wg.Add(1)
	for _, t := range g.initial {
		pk, rk := n.pending.Keys(t[:])
		n.pool.Push(n.newItem(t, pk, rk), -1)
	}
	w := &dpWorker{id: 1, V: make([]dpElem, dpAllocLen), bufs: NewBufs[dpElem](2*dpNumTileDeps, dpMaxEdgeCap)}
	var tiles int64
	for {
		p, _ := n.pool.Pop(1)
		if p == nil {
			break
		}
		n.exec(g, p, w)
		tiles++
	}
	steals, local, _ := n.pool.Counts()
	if seeds := int64(len(g.initial)); tiles != n.owned || !g.goalSet || steals > seeds || steals+local != tiles {
		t.Errorf("worker 1 ran %d of %d tiles (goal set %v): %d steals (%d seeded tiles), %d local pops",
			tiles, n.owned, g.goalSet, steals, seeds, local)
	}
}
`

// TestGeneratedReadiedTileStaysOnItsWorker is the generated program's twin
// of the engine's TestReadiedTileStaysOnItsWorker: a worker's delivery
// pushes the tile it readies onto that worker's own shard. It runs
// readiedTileTest beside the generated lcs2 program with go test, on 8 × 8
// tiles of which one is seeded.
func TestGeneratedReadiedTileStaysOnItsWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a program")
	}
	p, err := problems.Get("lcs2")
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(p.Spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, text := range map[string]string{
		"main.go":       string(src),
		"go.mod":        "module gen\n\ngo 1.22\n",
		"sched_test.go": readiedTileTest,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("go", "test", "-count=1", "-v", "-run", "TestReadiedTileStaysOnItsWorker", ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestReadiedTileStaysOnItsWorker") {
		t.Fatalf("generated program's test failed: %v\n%s", err, out)
	}
}
