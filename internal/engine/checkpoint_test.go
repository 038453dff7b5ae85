package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// encodeTestCheckpoint builds a checkpoint blob for the given decoded
// form, independently of encodeCheckpoint, so the decoder is tested
// against the documented format rather than against the encoder.
func encodeTestCheckpoint(ck *checkpoint) []byte {
	b := []byte(ckptMagic)
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	i64 := func(v int64) { u64(uint64(v)) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	i64(int64(ck.rank))
	i64(int64(ck.nodes))
	i64(int64(ck.d))
	i64(int64(ck.nd))
	i64(int64(len(ck.params)))
	for _, p := range ck.params {
		i64(p)
	}
	i64(ck.ownedTotal)
	i64(ck.executed)
	var flags uint64
	if ck.goalSet {
		flags |= 1
	}
	if ck.maxSet {
		flags |= 2
	}
	u64(flags)
	f64(ck.goalVal)
	f64(ck.maxVal)
	i64(int64(len(ck.executedKeys)))
	for _, k := range ck.executedKeys {
		u64(k)
	}
	i64(int64(len(ck.tiles)))
	for _, t := range ck.tiles {
		for _, c := range t.tile {
			i64(c)
		}
		i64(int64(len(t.edges)))
		for _, ed := range t.edges {
			i64(int64(ed.dep))
			i64(int64(len(ed.data)))
			for _, v := range ed.data {
				f64(v)
			}
		}
	}
	h := fnv.New64a()
	h.Write(b)
	u64(h.Sum64())
	return b
}

func TestCheckpointRoundtrip(t *testing.T) {
	want := &checkpoint{
		rank: 1, nodes: 2, d: 2, nd: 3,
		params:       []int64{64, 64},
		ownedTotal:   40,
		executed:     17,
		goalSet:      true,
		goalVal:      3.25,
		maxSet:       true,
		maxVal:       9.5,
		executedKeys: []uint64{7, 11, 42},
		tiles: []ckptTile{
			{tile: []int64{3, 5}, edges: []ckptEdge{
				{dep: 0, data: []float64{1, 2.5}},
				{dep: 2, data: []float64{-4}},
			}},
			{tile: []int64{0, 9}, edges: []ckptEdge{
				{dep: 1, data: []float64{0.125, 8, 16}},
			}},
		},
	}
	path := CheckpointPath(t.TempDir(), want.rank)
	if err := writeCheckpointFile(path, encodeTestCheckpoint(want)); err != nil {
		t.Fatal(err)
	}
	got, err := loadCheckpoint(path, want, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.rank != want.rank || got.nodes != want.nodes || got.d != want.d || got.nd != want.nd ||
		got.ownedTotal != want.ownedTotal || got.executed != want.executed ||
		got.goalSet != want.goalSet || got.goalVal != want.goalVal ||
		got.maxSet != want.maxSet || got.maxVal != want.maxVal {
		t.Fatalf("header mismatch: got %+v want %+v", got, want)
	}
	if len(got.params) != 2 || got.params[0] != 64 || got.params[1] != 64 {
		t.Errorf("params = %v", got.params)
	}
	if len(got.executedKeys) != 3 || got.executedKeys[2] != 42 {
		t.Errorf("executedKeys = %v", got.executedKeys)
	}
	if len(got.tiles) != 2 {
		t.Fatalf("tiles = %d, want 2", len(got.tiles))
	}
	t0 := got.tiles[0]
	if t0.tile[0] != 3 || t0.tile[1] != 5 || len(t0.edges) != 2 ||
		t0.edges[0].dep != 0 || t0.edges[0].data[1] != 2.5 ||
		t0.edges[1].dep != 2 || t0.edges[1].data[0] != -4 {
		t.Errorf("tile 0 = %+v", t0)
	}
	if got.tiles[1].edges[0].data[2] != 16 {
		t.Errorf("tile 1 = %+v", got.tiles[1])
	}

	// The atomic write must not leave its temp file behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Errorf("stray temp file %s after writeCheckpointFile", e.Name())
		}
	}
}

// TestCheckpointFinalFile decodes what a real run encoded: a completed
// in-process run at 2 nodes x 2 threads, checkpointing after every
// tile, must leave each rank a file that loads against the run's
// header and holds the finished frontier — every owned tile executed
// once, and no live tile.
func TestCheckpointFinalFile(t *testing.T) {
	dir := t.TempDir()
	tl, prep, res := finalCheckpointRun(t, dir)
	for r := 0; r < 2; r++ {
		if res.Stats[r].Checkpoints < 1 {
			t.Errorf("rank %d wrote %d checkpoints", r, res.Stats[r].Checkpoints)
		}
		owned := prep.assign.Tiles[r]
		run := &checkpoint{rank: r, nodes: 2, d: len(tl.Spec.Vars), nd: len(tl.Spec.Deps),
			params: prep.params, ownedTotal: owned}
		ck, err := loadCheckpoint(CheckpointPath(dir, r), run, len(tl.TileDeps))
		if err != nil || ck == nil {
			t.Fatalf("rank %d: load = %v, %v", r, ck, err)
		}
		if err := ck.check(prep.layout, tl.NewProbe(prep.params)); err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
		keys := make(map[uint64]bool)
		for _, k := range ck.executedKeys {
			keys[k] = true
		}
		if ck.executed != owned || int64(len(keys)) != owned || len(ck.executedKeys) != len(keys) {
			t.Errorf("rank %d: executed %d with %d keys (%d distinct), want %d owned tiles",
				r, ck.executed, len(ck.executedKeys), len(keys), owned)
		}
		if len(ck.tiles) != 0 {
			t.Errorf("rank %d: finished checkpoint holds %d live tiles", r, len(ck.tiles))
		}
	}
}

// finalCheckpointRun runs bandit2 at 2 nodes x 2 threads, checkpointing
// into dir after every tile, and returns the run's tiling, prepared
// instance and result.
func finalCheckpointRun(t testing.TB, dir string) (*tiling.Tiling, *Prepared, *Result) {
	tl := bandit2Tiling(t, 4, []string{"s1", "f1"})
	prep, err := Prepare(tl, []int64{12}, 2, Config{}.Balance)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Run(bandit2Kernel, Config{Nodes: 2, Threads: 2,
		Checkpoint: CheckpointConfig{Dir: dir, EveryTiles: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return tl, prep, res
}

// FuzzCheckpoint feeds arbitrary bytes to a resuming rank's decoder and
// content check, against rank 0's header of finalCheckpointRun's run:
// every input is either rejected with an error or decodes to a
// checkpoint that re-encodes to exactly those bytes, and none panics.
// The corpus is seeded with the files that run writes and one record a
// mid-run checkpoint could hold.
func FuzzCheckpoint(f *testing.F) {
	dir := f.TempDir()
	tl, prep, _ := finalCheckpointRun(f, dir)
	run := &checkpoint{rank: 0, nodes: 2, d: len(tl.Spec.Vars), nd: len(tl.Spec.Deps),
		params: prep.params, ownedTotal: prep.assign.Tiles[0]}
	for r := 0; r < 2; r++ {
		blob, err := os.ReadFile(CheckpointPath(dir, r))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	live := *run
	live.tiles = []ckptTile{{tile: []int64{0, 0, 0, 0}, edges: []ckptEdge{{dep: 0, data: []float64{1, 2}}}}}
	f.Add(encodeTestCheckpoint(&live))
	probe := tl.NewProbe(prep.params)
	f.Fuzz(func(t *testing.T, blob []byte) {
		ck, err := decodeCheckpoint(blob, run, len(tl.TileDeps))
		if err == nil {
			err = ck.check(prep.layout, probe)
		}
		if err != nil {
			return
		}
		if re := encodeTestCheckpoint(ck); !bytes.Equal(re, blob) {
			t.Fatalf("checkpoint re-encodes to %x, was %x", re, blob)
		}
	})
}

// TestCheckpointMissingFile: a rank with no snapshot resumes from
// scratch, so a missing file is (nil, nil), not an error.
func TestCheckpointMissingFile(t *testing.T) {
	ck, err := loadCheckpoint(CheckpointPath(t.TempDir(), 0), &checkpoint{}, 0)
	if ck != nil || err != nil {
		t.Fatalf("missing checkpoint = (%v, %v), want (nil, nil)", ck, err)
	}
}

// TestCheckpointRejectsCorruption feeds damaged bytes to both users of
// the record codec: a checkpoint file through loadCheckpoint and a
// migration payload (the same record section, sealed) through
// decodeMigration. Checksum-valid content that names tiles the run has
// no slot for goes through the two paths that vet it: a resuming
// rank's loadResume, which must fail, and applyMigration, which must
// panic. A damaged file of one rank of a 2-node in-process resume must
// fail the whole run before any rank launches.
func TestCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	run := &checkpoint{rank: 0, nodes: 1, d: 1, nd: 1, params: []int64{8}}
	blob := encodeTestCheckpoint(&checkpoint{rank: 0, nodes: 1, d: 1, nd: 1, params: []int64{8}})
	loadFile := func(t *testing.T, b []byte) error {
		path := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "-")+".ckpt")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := loadCheckpoint(path, run, 1)
		return err
	}
	// A checksum-valid file whose header claims an absurd dimension (a
	// checkpoint directory reused across specs) and carries one tile: it
	// must be turned away at the header, not sized from its own d.
	hugeD := encodeTestCheckpoint(&checkpoint{rank: 0, nodes: 1, d: 1 << 40, nd: 1, params: []int64{8},
		tiles: []ckptTile{{tile: []int64{0}}}})
	// An absurd element count inside a checksummed body must be
	// rejected by the bounds-checked reader, not crash the decoder.
	evil := []byte(ckptMagic)
	for i := 0; i < 4; i++ {
		evil = binary.LittleEndian.AppendUint64(evil, 0)
	}
	evil = sealBlob(binary.LittleEndian.AppendUint64(evil, 1<<40)) // params count

	// One 2-D tile with one three-element edge, as applyEpoch ships it.
	mig := sealBlob(appendRecords(nil, []*pendTile{{Tile: tileState{
		coord: []int64{3, 5},
		edges: []edge{{dep: 1, data: []float64{1, 2.5, -4}}},
	}}}))
	loadMig := func(_ *testing.T, b []byte) error {
		_, err := decodeMigration(b, 2, 2)
		return err
	}
	if err := loadMig(t, mig); err != nil {
		t.Fatalf("intact migration payload rejected: %v", err)
	}
	reseal := func(b []byte) []byte { return sealBlob(b[:len(b)-8]) }

	// A triangle of 15 tiles in a 5 × 5 tile box: tile (4, 4) is in the
	// box but not in the space, and the box has 25 executed keys.
	tri := spec.MustNew("tri", []string{"N"}, []string{"i", "j"})
	tri.MustConstrain("i >= 0")
	tri.MustConstrain("j >= 0")
	tri.MustConstrain("i + j <= N")
	tri.AddDep("down", 1, 0)
	tri.AddDep("right", 0, 1)
	tri.TileWidths = []int64{2, 2}
	triTl, err := tiling.New(tri)
	if err != nil {
		t.Fatal(err)
	}
	triPrep, err := Prepare(triTl, []int64{8}, 1, Config{}.Balance)
	if err != nil {
		t.Fatal(err)
	}
	triDir := t.TempDir()
	triNode := func() *node {
		return newTestNode(triPrep, sumKernel, Config{Checkpoint: CheckpointConfig{Dir: triDir, Resume: true}})
	}
	// A real 2-node run's files, resumed with rank 1's damaged: the run
	// returns the decode error promptly and leaves no goroutine behind,
	// because no rank launches before every rank's set-up has passed.
	runDir := t.TempDir()
	_, runPrep, _ := finalCheckpointRun(t, runDir)
	rank1, err := os.ReadFile(CheckpointPath(runDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	resumeRun := func(t *testing.T, b []byte) error {
		if err := os.WriteFile(CheckpointPath(runDir, 1), b, 0o644); err != nil {
			t.Fatal(err)
		}
		type outcome struct {
			err        error
			goroutines int
		}
		out := make(chan outcome, 1)
		before := runtime.NumGoroutine()
		go func() {
			_, err := runPrep.Run(bandit2Kernel, Config{Nodes: 2, Threads: 2,
				Checkpoint: CheckpointConfig{Dir: runDir, Resume: true}})
			out <- outcome{err, runtime.NumGoroutine() - 1} // less this one
		}()
		select {
		case o := <-out:
			if o.goroutines > before {
				t.Errorf("goroutines leaked: %d before the run, %d after", before, o.goroutines)
			}
			return o.err
		case <-time.After(time.Minute):
			t.Fatal("resume with a damaged rank-1 checkpoint did not return")
			return nil
		}
	}

	owned := triPrep.assign.Tiles[0]
	triCkpt := func(executed int64, keys []uint64, tile ...int64) []byte {
		return encodeTestCheckpoint(&checkpoint{rank: 0, nodes: 1, d: 2, nd: 2, params: []int64{8},
			ownedTotal: owned, executed: executed, executedKeys: keys,
			tiles: []ckptTile{{tile: tile, edges: []ckptEdge{{dep: 0, data: []float64{1, 2}}}}}})
	}
	resume := func(t *testing.T, b []byte) error {
		if err := os.WriteFile(CheckpointPath(triDir, 0), b, 0o644); err != nil {
			t.Fatal(err)
		}
		n := triNode()
		_, err := n.loadResume()
		return err
	}
	if err := resume(t, triCkpt(2, []uint64{0, 24}, 1, 1)); err != nil { // 24: the box's last slot
		t.Fatalf("intact checkpoint rejected: %v", err)
	}
	keys := make([]uint64, owned+1)
	for i := range keys {
		keys[i] = uint64(i)
	}
	applyMig := func(t *testing.T, b []byte) (err error) {
		n := triNode()
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		n.applyMigration(blobToFloats(b), nil, newDelivState(triPrep))
		return nil
	}
	outside := sealBlob(appendRecords(nil, []*pendTile{{Tile: tileState{
		coord: []int64{4, 4},
		edges: []edge{{dep: 1, data: []float64{1, 2}}},
	}}}))

	cases := []struct {
		name    string
		blob    []byte
		mutate  func([]byte) []byte
		load    func(*testing.T, []byte) error
		errPart string
	}{
		{"bad-magic", blob, func(b []byte) []byte { b[0] = 'X'; return b }, loadFile, "not a checkpoint"},
		{"flipped-bit", blob, func(b []byte) []byte { b[len(ckptMagic)+3] ^= 0x40; return b }, loadFile, "checksum"},
		{"truncated-tail", blob, func(b []byte) []byte { return b[:len(b)-9] }, loadFile, "checksum"},
		{"too-short", blob, func(b []byte) []byte { return b[:4] }, loadFile, "not a checkpoint"},
		{"huge-d", hugeD, func(b []byte) []byte { return b }, loadFile, "from a different run"},
		{"evil-count", evil, func(b []byte) []byte { return b }, loadFile, "corrupt count"},
		{"migration-bad-checksum", mig, func(b []byte) []byte { b[20] ^= 1; return b }, loadMig, "checksum"},
		{"migration-too-short", mig, func(b []byte) []byte { return b[:5] }, loadMig, "checksum"},
		{"migration-truncated", mig, func(b []byte) []byte { return reseal(b[:len(b)-8]) }, loadMig, "corrupt count"},
		{"migration-bad-tile-count", mig, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b, 1<<40)
			return reseal(b)
		}, loadMig, "corrupt count"},
		{"migration-bad-elem-count", mig, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8*5:], 1<<40) // ntiles, 2 coords, nedges, dep, then n
			return reseal(b)
		}, loadMig, "corrupt count"},
		{"migration-bad-dep", mig, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8*4:], 7)
			return reseal(b)
		}, loadMig, "dependence 7 of 2"},
		{"migration-trailing-bytes", mig, func(b []byte) []byte {
			return sealBlob(append(b[:len(b)-8], make([]byte, 8)...))
		}, loadMig, "8 bytes after the records"},
		{"unknown-flags", blob, func(b []byte) []byte {
			b[len(ckptMagic)+8*8] |= 4 // rank nodes d nd nparams param ownedTotal executed, then flags
			return reseal(b)
		}, loadFile, "unknown flags"},
		{"record-outside-box", triCkpt(0, nil, 9, 0), func(b []byte) []byte { return b }, resume, "tile [9 0] outside the tile space"},
		{"record-outside-space", triCkpt(0, nil, 4, 4), func(b []byte) []byte { return b }, resume, "tile [4 4] outside the tile space"},
		{"executed-key-outside-box", triCkpt(1, []uint64{25}, 1, 1), func(b []byte) []byte { return b }, resume, "outside the 25-slot tile box"},
		{"executed-keys-repeated", triCkpt(2, []uint64{3, 3}, 1, 1), func(b []byte) []byte { return b }, resume, "key 3 out of order"},
		{"executed-count-not-keys", triCkpt(3, []uint64{0, 1}, 1, 1), func(b []byte) []byte { return b }, resume, "3 tiles executed with 2 keys"},
		{"executed-over-owned", triCkpt(owned+1, keys, 1, 1), func(b []byte) []byte { return b }, resume,
			fmt.Sprintf("%d tiles executed with %d keys of %d owned", owned+1, owned+1, owned)},
		{"resume-run-rank1-flipped-bit", rank1, func(b []byte) []byte { b[len(ckptMagic)+3] ^= 0x40; return b }, resumeRun,
			"rank-1.ckpt: failed its checksum"},
		{"migration-outside-space", outside, func(b []byte) []byte { return b }, applyMig, "tile [4 4] outside the tile space"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := tc.load(t, tc.mutate(append([]byte(nil), tc.blob...)))
			if err == nil {
				t.Fatal("corrupt blob decoded")
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("error %q lacks %q", err, tc.errPart)
			}
		})
	}
}

// TestCheckpointManyDeps runs a tracking table past 64 tile
// dependences: a 1-D spec whose cell x reads the 65 cells after it, at
// tile width 1, checkpointed at 2 nodes, must compute every cell
// bit-identically to the plain run and to the serial reference.
func TestCheckpointManyDeps(t *testing.T) {
	const reach, n = 65, 150
	sp := spec.MustNew("deep", []string{"N"}, []string{"x"})
	sp.MustConstrain("0 <= x <= N")
	for j := int64(1); j <= reach; j++ {
		sp.AddDep(fmt.Sprintf("r%d", j), j)
	}
	sp.TileWidths = []int64{1}
	tl, err := tiling.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.TileDeps) != reach {
		t.Fatalf("%d tile dependences, want %d", len(tl.TileDeps), reach)
	}
	kernel := func(c *Ctx) {
		v := 1.0
		for j, ok := range c.DepValid {
			if ok {
				v += c.V[c.DepLoc[j]] / (reach + 1)
			}
		}
		c.V[c.Loc] = v
	}
	ref := make([]float64, n+1)
	for x := n; x >= 0; x-- {
		ref[x] = 1
		for j := 1; j <= reach && x+j <= n; j++ {
			ref[x] += ref[x+j] / (reach + 1)
		}
	}
	for _, cfg := range []Config{
		{Nodes: 2},
		{Nodes: 2, Checkpoint: CheckpointConfig{Dir: t.TempDir(), EveryTiles: 1}},
	} {
		got := make([]float64, n+1)
		res, err := Run(tl, capturing(kernel, func(x []int64, v float64) { got[x[0]] = v }), []int64{n}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for x := range ref {
			if math.Float64bits(got[x]) != math.Float64bits(ref[x]) {
				t.Fatalf("checkpointed %v: cell %d = %v, serial %v", cfg.Checkpoint.Dir != "", x, got[x], ref[x])
			}
		}
		if res.Value != ref[0] {
			t.Errorf("checkpointed %v: value %v, serial %v", cfg.Checkpoint.Dir != "", res.Value, ref[0])
		}
		if cfg.Checkpoint.Dir != "" && res.Stats[0].Checkpoints+res.Stats[1].Checkpoints == 0 {
			t.Error("the checkpointed run wrote no checkpoint")
		}
	}
}
