// Fault-tolerance checkpoints: the on-disk snapshot a rank writes
// periodically (Config.Checkpoint) and restores from after a crash
// (Checkpoint.Resume). A checkpoint records exactly the rank's durable
// progress — the executed-tile set, the buffered dependence edges of
// tiles still waiting or queued (the O(n^{d-1}) live state), and the
// goal/max accumulators. It is encoded at the rank's cut — workers
// paused at a tile boundary and every send acknowledged, the same cut a
// view change takes (elastic.go) — so every tile it records as executed
// has had its outgoing edges received by their consumers, and no tile
// sits between unpack and retire. A tile missing from the checkpoint
// simply re-executes and re-sends on resume, and the receivers'
// duplicate-edge filter keeps every cell computed exactly once.
// Correctness therefore never depends on how fresh (or whether) a
// checkpoint file is.
//
// Format (little-endian 64-bit words, "DPCKPT2\n" magic, trailing FNV-1a
// sum; the record section is live.go's, shared with migration):
//
//	magic | rank nodes d nd | nparams params | ownedTotal executed |
//	flags goalVal maxVal | nkeys executedKeys (ascending slot keys,
//	balance.Layout) | records | fnv1a(everything above)

package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"dpgen/internal/balance"
	"dpgen/internal/obs"
	"dpgen/internal/tiling"
)

const ckptMagic = "DPCKPT2\n"

// CheckpointPath returns the checkpoint file a rank writes inside dir:
// dir/rank-<rank>.ckpt. dprun's supervisor uses it to point a restarted
// rank at its own snapshot.
func CheckpointPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank-%d.ckpt", rank))
}

// checkpoint is the decoded in-memory form of one rank's snapshot.
type checkpoint struct {
	rank, nodes, d, nd int
	params             []int64
	ownedTotal         int64
	executed           int64
	goalSet            bool
	goalVal            float64
	maxSet             bool
	maxVal             float64
	executedKeys       []uint64
	tiles              []ckptTile
}

// ckptHeader is the header every checkpoint of this rank of this run
// carries, which a file must match before its variable-length content
// is decoded.
func (n *node) ckptHeader() *checkpoint {
	return &checkpoint{
		rank: n.id, nodes: n.cfg.Nodes,
		d: len(n.tl.Spec.Vars), nd: len(n.tl.Spec.Deps),
		params: n.prep.params, ownedTotal: n.ownedTotal,
	}
}

// mismatch names the first header field in which a decoded checkpoint
// differs from the run's header, or returns nil.
func (run *checkpoint) mismatch(ck *checkpoint) error {
	switch {
	case ck.rank != run.rank:
		return fmt.Errorf("rank %d, want %d", ck.rank, run.rank)
	case ck.nodes != run.nodes:
		return fmt.Errorf("%d ranks, want %d", ck.nodes, run.nodes)
	case ck.d != run.d || ck.nd != run.nd:
		return fmt.Errorf("%d vars/%d deps, want %d/%d", ck.d, ck.nd, run.d, run.nd)
	case !slices.Equal(ck.params, run.params):
		return fmt.Errorf("params %v, want %v", ck.params, run.params)
	case ck.ownedTotal != run.ownedTotal:
		return fmt.Errorf("%d owned tiles, want %d", ck.ownedTotal, run.ownedTotal)
	}
	return nil
}

// encodeCheckpoint serializes the node's durable state. The caller has
// the live table frozen — which orders it after the maximum fold of
// every tile the table records as executed — and holds n.mu, which
// guards the goal value.
func (n *node) encodeCheckpoint() []byte {
	b := make([]byte, 0, 256)
	b = append(b, ckptMagic...)
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	i64 := func(v int64) { u64(uint64(v)) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	h := n.ckptHeader()
	i64(int64(h.rank))
	i64(int64(h.nodes))
	i64(int64(h.d))
	i64(int64(h.nd))
	i64(int64(len(h.params)))
	for _, p := range h.params {
		i64(p)
	}
	i64(h.ownedTotal)
	i64(n.executed)

	max := n.cellMax()
	var flags uint64
	if n.goalSet {
		flags |= 1
	}
	if max.set {
		flags |= 2
	}
	u64(flags)
	f64(n.goalVal)
	f64(max.max)

	return sealBlob(n.live.snapshot(b))
}

// writeCheckpointFile writes the blob atomically: temp file in the same
// directory, fsync, rename over the final path. A crash mid-write
// leaves the previous checkpoint intact.
func writeCheckpointFile(path string, blob []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err = f.Write(blob); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// loadCheckpoint reads one checkpoint file and decodes it against the
// run it is resumed into (decodeCheckpoint). A missing file is not an
// error: (nil, nil), and the rank resumes from scratch (peers redeliver
// everything it needs).
func loadCheckpoint(path string, run *checkpoint, tileDeps int) (*checkpoint, error) {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(blob, run, tileDeps)
}

// decodeCheckpoint decodes a blob against the run it resumes: the header
// is compared with run's before any record is read, and records are
// sized by run.d and tileDeps — a checksum-valid file from another spec
// is "from a different run", never an allocation of the d it claims.
func decodeCheckpoint(blob []byte, run *checkpoint, tileDeps int) (*checkpoint, error) {
	if len(blob) < len(ckptMagic)+8 || string(blob[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("not a checkpoint file")
	}
	body, ok := openBlob(blob)
	if !ok {
		return nil, fmt.Errorf("failed its checksum")
	}
	r := &blobReader{b: body[len(ckptMagic):]}
	ck := &checkpoint{
		rank:  int(r.i64()),
		nodes: int(r.i64()),
		d:     int(r.i64()),
		nd:    int(r.i64()),
	}
	ck.params = make([]int64, r.count(8))
	for i := range ck.params {
		ck.params[i] = r.i64()
	}
	ck.ownedTotal = r.i64()
	if r.err == nil {
		if err := run.mismatch(ck); err != nil {
			return nil, fmt.Errorf("from a different run (%w)", err)
		}
	}
	ck.executed = r.i64()
	flags := r.u64()
	if r.err == nil && flags&^3 != 0 {
		r.err = fmt.Errorf("unknown flags %#x", flags)
	}
	ck.goalSet = flags&1 != 0
	ck.goalVal = r.f64()
	ck.maxSet = flags&2 != 0
	ck.maxVal = r.f64()
	ck.executedKeys = make([]uint64, r.count(8))
	for i := range ck.executedKeys {
		ck.executedKeys[i] = r.u64()
	}
	ck.tiles = readRecords(r, run.d, tileDeps)
	if r.err != nil {
		return nil, fmt.Errorf("decode: %w", r.err)
	}
	return ck, nil
}

// check vets a decoded checkpoint before it touches the table: the
// executed count is the number of keys and at most the owned tiles, the
// keys ascend within the tile box and every record names a real tile.
func (ck *checkpoint) check(l *balance.Layout, probe *tiling.TileProbe) error {
	if ck.executed != int64(len(ck.executedKeys)) || ck.executed > ck.ownedTotal {
		return fmt.Errorf("%d tiles executed with %d keys of %d owned tiles", ck.executed, len(ck.executedKeys), ck.ownedTotal)
	}
	slots := l.Slab.Len() * l.Rest.Len()
	for i, k := range ck.executedKeys {
		if k >= slots || (i > 0 && k <= ck.executedKeys[i-1]) {
			return fmt.Errorf("executed key %d out of order or outside the %d-slot tile box", k, slots)
		}
	}
	return checkRecords(l, ck.tiles, probe)
}

// loadResume reads the node's checkpoint (if any) and restores the
// executed-tile set and the goal/max accumulators. It returns the
// checkpoint's live-tile records, which replay applies once the ready
// queues are seeded.
func (n *node) loadResume() ([]ckptTile, error) {
	ck, err := loadCheckpoint(n.ckptPath, n.ckptHeader(), len(n.tl.TileDeps))
	if err == nil && ck != nil {
		err = ck.check(n.prep.layout, n.prep.rows.NewProbe())
	}
	if err != nil {
		return nil, fmt.Errorf("engine: checkpoint %s: %w", n.ckptPath, err)
	}
	if ck == nil {
		return nil, nil
	}
	n.live.restoreExecuted(ck.executedKeys)
	n.executed = ck.executed
	// No worker exists yet: the restored goal and maximum need no lock,
	// and the maximum seeds the first worker's fold.
	if ck.goalSet {
		n.goalVal, n.goalSet = ck.goalVal, true
	}
	n.maxes[0].merge(cellMax{max: ck.maxVal, set: ck.maxSet})
	return ck.tiles, nil
}

// replay applies a checkpoint's live-tile records: edges from producers
// this rank already executed arrive only here (those producers will not
// re-run), while edges from not-yet-executed producers arrive again
// later and are dropped by the duplicate filter. Runs on the seeding
// goroutine, before workers start.
func (n *node) replay(recs []ckptTile) {
	lane := n.initLane()
	var t0 int64
	if lane != nil {
		t0 = lane.Now()
	}
	edges := n.applyRecords(recs, lane, newDelivState(n.prep))
	if lane != nil {
		lane.Span(obs.KRecover, "", -1, edges, t0)
	}
}

// checkpointer is the per-node loop that writes checkpoints: one per
// due signal from tileDone. The run closes the signal at done, so the
// loop ends after a final checkpoint if one was still due, and the
// on-disk snapshot reflects the finished frontier.
func (n *node) checkpointer(lane *obs.Lane) {
	for range n.ckptDue {
		n.checkpoint(lane)
	}
}

// checkpoint takes the cut (elastic.go), encodes the rank's state
// under it with the table frozen and the node lock held, resumes the
// workers, and only then writes the file. A cut the transport's stop
// cut short, a crashed rank or a failed write leaves the previous file
// in place; the next due signal writes a fresh one.
func (n *node) checkpoint(lane *obs.Lane) {
	var t0 int64
	if lane != nil {
		t0 = lane.Now()
	}
	var blob []byte
	if n.cut(nil) {
		n.live.freeze()
		n.mu.Lock()
		if !n.crashed {
			blob = n.encodeCheckpoint()
		}
		n.mu.Unlock()
		n.live.thaw()
	}
	n.resumeWorkers()
	if blob == nil || writeCheckpointFile(n.ckptPath, blob) != nil {
		return
	}
	n.mu.Lock()
	n.st.Checkpoints++
	n.st.CheckpointBytes += int64(len(blob))
	n.mu.Unlock()
	if lane != nil {
		lane.Span(obs.KCheckpoint, "", -1, int64(len(blob)), t0)
	}
}
