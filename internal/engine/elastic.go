// Elastic cluster membership: ranks may join or leave a distributed
// run while it executes (Config.Elastic; see docs/ELASTICITY.md). The
// transport mesh is fixed at the world size W up front; membership is
// the subset of ranks that own tiles. Rank 0 coordinates view changes:
//
//	PREP(e)  rank 0 -> all W ranks. Each rank takes its cut (below,
//	         shared with checkpoints): workers paused at a tile
//	         boundary, every send acknowledged. It then answers
//	         ACK(e, census) with its executed-per-slab counts. ACKs
//	         are sent at the transport's quiescence point
//	         (acknowledgements fire after delivery), so all W ACKs at
//	         rank 0 mean every dependence edge ever sent has been
//	         applied somewhere — nothing is in flight.
//	EPOCH(e, members, census)  rank 0 -> all W ranks, after merging
//	         the per-rank censuses. Every rank runs the same
//	         deterministic balance.Rebalance locally — no ownership
//	         table crosses the wire — extracts the live tiles it no
//	         longer owns, resumes its workers, and ships the extracted
//	         tiles (with their buffered edges) to the new owners as
//	         DATA frames with tag -1, riding the normal
//	         acknowledgement and backpressure machinery.
//	FIN      rank 0 -> all W ranks once the scale schedule and every
//	         expected voluntary leave have been honoured; termination
//	         is gated on it so a rank that currently owns zero tiles
//	         (a standby before its join, a member after its leave)
//	         keeps serving the mesh instead of exiting.
//
// JOIN and LEAVE are requests to rank 0: a rank outside the initial
// members announces itself and is admitted by the scale schedule; a
// leaving rank asks out after its LeaveAfter threshold and keeps
// executing until the view change strips its ownership. Departed ranks
// stay connected — they answer PREPs trivially and join the final
// result merge — so a "leave" is a transfer of work, not a socket
// teardown.
//
// Bit-identity is preserved because nothing about cell arithmetic
// changes: each tile still executes exactly once, from exactly the
// edges its producers packed, on whichever rank owns it at execution
// time. The migration payload moves buffered edges byte-for-byte — it
// is the live table's record section (live.go), the same one a
// checkpoint file carries — and the table's duplicate filter makes any
// stale or replayed edge a no-op.

package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"dpgen/internal/balance"
	"dpgen/internal/mpi"
	"dpgen/internal/obs"
)

// ScaleEvent is one entry of rank 0's scale schedule: once rank 0 has
// executed AfterTiles tiles, Delta ranks are admitted (positive; from
// the announced joiners) or removed (negative; highest-ranked members
// first, never rank 0).
type ScaleEvent struct {
	AfterTiles int64
	Delta      int
}

// ElasticConfig enables elastic membership (Config.Elastic). It
// requires a distributed run over a transport that supports the
// membership frames (dpgen/internal/mpi/tcp). It cannot run with
// Checkpoint; Config.Elastic says why. It describes the whole job:
// every rank gets the same value and derives its own role from its
// rank.
type ElasticConfig struct {
	Enabled bool
	// Members is the initial member set (rank numbers within the
	// world); nil means every rank. Must include rank 0, the
	// coordinator. A rank outside it starts as a standby (owning
	// nothing), announces itself to rank 0 as a joiner, and waits for
	// a positive ScaleAt event to admit it.
	Members []int
	// ScaleAt is rank 0's view-change schedule, processed in
	// AfterTiles order; only rank 0 reads it. If rank 0 finishes its
	// own tiles before an event's threshold, the remaining events fire
	// immediately (admitting however many joiners have announced).
	ScaleAt []ScaleEvent
	// LeaveAfter schedules voluntary leaves: rank r requests one once
	// it has executed LeaveAfter[r] tiles (or all of its tiles,
	// whichever comes first), keeps executing until the leave is
	// granted, then serves as a standby. Rank 0 waits for
	// len(LeaveAfter) requests before declaring the membership final
	// (FIN); without that gate a leave racing the end of the run could
	// be granted or not depending on timing. Keys lie in [1, world):
	// rank 0 coordinates and cannot leave.
	LeaveAfter map[int]int64
}

// elasticTransport is the transport facet elastic membership needs,
// implemented by dpgen/internal/mpi/tcp. The in-memory communicator
// deliberately lacks it: elasticity is about processes, and the
// in-process simulation has nothing to join or leave.
type elasticTransport interface {
	SendElastic(dst int, kind byte, payload []byte) error
	ElasticCh() <-chan mpi.ElasticMsg
	SetEpoch(e uint32)
}

// drainer is the transport facet a cut waits on (dpgen/internal/mpi/tcp):
// WaitDrained returns true once every send is acknowledged, false if
// abort closes or the transport stops first. A transport without it
// (the in-memory communicator) counts as drained.
type drainer interface {
	WaitDrained(abort <-chan struct{}) bool
}

// normalizeMembers validates and sorts an initial member list.
func normalizeMembers(members []int, world int) ([]int, error) {
	if members == nil {
		members = make([]int, world)
		for i := range members {
			members[i] = i
		}
		return members, nil
	}
	m := append([]int(nil), members...)
	sort.Ints(m)
	for i, r := range m {
		if r < 0 || r >= world {
			return nil, fmt.Errorf("engine: elastic member rank %d out of range [0,%d)", r, world)
		}
		if i > 0 && m[i-1] == r {
			return nil, fmt.Errorf("engine: duplicate elastic member rank %d", r)
		}
	}
	if len(m) == 0 || m[0] != 0 {
		return nil, fmt.Errorf("engine: elastic members must include rank 0 (the coordinator)")
	}
	return m, nil
}

// ownerOf resolves a tile's owning rank under the current ownership
// map: the prepared assignment, replaced at each elastic view change.
func (n *node) ownerOf(t []int64) int {
	return n.owners.Load().Owner(t)
}

// ---- the cut: worker pause and send drain ----
//
// A checkpoint (checkpoint.go) and a view change's PREP observe the
// rank at one consistent cut: no tile in execution, so the live table
// and the node's counters agree, and every send acknowledged, so every
// edge an executed tile sent has been received.
// A tracking run's workers claim an executing slot *before* popping a
// tile and release it after the tile retires or the pop comes up empty;
// the pauser parks them at the gate and waits for the slots to drain.
// Receivers never pause: acknowledgements must keep flowing.

// cut pauses the workers at a tile boundary, then waits until every
// send this rank issued is acknowledged. It returns false, workers
// still paused, if abort closes or the transport stops first.
func (n *node) cut(abort <-chan struct{}) bool {
	n.pauseWorkers()
	d, ok := n.rank.(drainer)
	return !ok || d.WaitDrained(abort)
}

// pauseGate parks the worker while a cut is in progress, then claims
// an executing slot.
func (n *node) pauseGate() {
	n.mu.Lock()
	for n.paused && !n.done {
		n.pauseCond.Wait()
	}
	n.executingN++
	n.mu.Unlock()
}

// execDone releases the worker's executing slot, waking the pauser
// when the last in-flight tile retires.
func (n *node) execDone() {
	n.mu.Lock()
	n.executingN--
	if n.executingN == 0 && n.paused {
		n.quietCond.Signal()
	}
	n.mu.Unlock()
}

// pauseWorkers stops tile execution at the next tile boundary and
// waits until no tile is in flight.
func (n *node) pauseWorkers() {
	n.mu.Lock()
	n.paused = true
	for n.executingN > 0 {
		n.quietCond.Wait()
	}
	n.mu.Unlock()
}

// resumeWorkers reopens the gate and wakes sleepers so they rescan the
// queues (the view change may have migrated ready tiles in).
func (n *node) resumeWorkers() {
	n.mu.Lock()
	n.paused = false
	n.pauseCond.Broadcast()
	n.mu.Unlock()
	n.pool.Wake()
}

// ---- wire payloads (64-bit words, read back through blobReader) ----

// encodeAck snapshots this rank's executed-per-slab census, read off
// the live table, sparse: the epoch being acknowledged, then a (slab,
// count) pair per nonzero slab, indexed like the stable Slabs order.
func (n *node) encodeAck(epoch uint32) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(epoch))
	for i, c := range n.live.executedPerSlab(n.owners.Load().Slabs()) {
		if c != 0 {
			b = binary.LittleEndian.AppendUint64(b, uint64(i))
			b = binary.LittleEndian.AppendUint64(b, uint64(c))
		}
	}
	return b
}

// mergeAck folds one rank's sparse census into the coordinator's
// global census. Returns the acknowledged epoch.
func mergeAck(pl []byte, census []int64) (uint32, error) {
	r := &blobReader{b: pl}
	epoch := uint32(r.u64())
	for len(r.b) > 0 && r.err == nil {
		i, c := r.i64(), r.i64()
		if r.err == nil && (i < 0 || i >= int64(len(census))) {
			return 0, fmt.Errorf("engine: elastic ACK slab index %d of %d", i, len(census))
		}
		if r.err == nil {
			census[i] += c
		}
	}
	return epoch, r.err
}

// encodeEpochPayload builds the EPOCH broadcast: epoch, member count
// and list, then the dense merged census to the end of the payload.
func encodeEpochPayload(epoch uint32, members []int, census []int64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(epoch))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(members)))
	for _, r := range members {
		b = binary.LittleEndian.AppendUint64(b, uint64(r))
	}
	for _, c := range census {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	return b
}

func decodeEpochPayload(pl []byte) (epoch uint32, members []int, census []int64, err error) {
	r := &blobReader{b: pl}
	epoch = uint32(r.u64())
	members = make([]int, r.count(8))
	for i := range members {
		members[i] = int(r.i64())
	}
	census = make([]int64, len(r.b)/8)
	for i := range census {
		census[i] = r.i64()
	}
	return epoch, members, census, r.err
}

// ---- migration payload ----
//
// What a rank ships when a view change moves live tiles off it: the
// tiles' sealed record section (live.go) — coordinates plus every
// buffered edge, byte-identical to how the edges arrived. It rides a
// normal DATA frame (tag -1) with the bytes packed into the float64
// payload bit-for-bit, so migration inherits the transport's
// acknowledgement, backpressure and retention machinery unchanged.

// blobToFloats packs a sealed record section — whole 64-bit words —
// into a pooled float64 payload bit-for-bit; floatsToBlob is its
// inverse.
func blobToFloats(blob []byte) []float64 {
	data := mpi.GetData(len(blob) / 8)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(blob[8*i:]))
	}
	return data
}

func floatsToBlob(data []float64) []byte {
	blob := make([]byte, 0, 8*len(data))
	for _, v := range data {
		blob = binary.LittleEndian.AppendUint64(blob, math.Float64bits(v))
	}
	return blob
}

// decodeMigration opens a migration payload for a run with d loop
// variables and ndeps tile dependences.
func decodeMigration(blob []byte, d, ndeps int) ([]ckptTile, error) {
	body, ok := openBlob(blob)
	if !ok {
		return nil, fmt.Errorf("engine: migration payload (%d bytes) failed its checksum", len(blob))
	}
	r := &blobReader{b: body}
	recs := readRecords(r, d, ndeps)
	if r.err != nil {
		return nil, fmt.Errorf("engine: decode migration payload: %w", r.err)
	}
	return recs, nil
}

// applyMigration absorbs one inbound migration payload on the receiver
// goroutine. The transport slot is released only after this returns, so
// the sender's next quiescence point proves the tiles live here now. A
// payload that fails to decode or names no real tile came from a peer
// running this same code over TCP: a protocol bug, not an input error.
func (n *node) applyMigration(data []float64, lane *obs.Lane, ds *delivState) {
	recs, err := decodeMigration(floatsToBlob(data), len(n.tl.Spec.Vars), len(n.tl.TileDeps))
	if err == nil {
		err = checkRecords(n.prep.layout, recs, ds.probe)
	}
	if err != nil {
		panic(fmt.Sprintf("engine: rank %d: %v", n.id, err))
	}
	edges := n.applyRecords(recs, lane, ds)
	n.mu.Lock()
	n.st.TilesMigratedIn += int64(len(recs))
	n.st.EdgesMigratedIn += edges
	n.mu.Unlock()
	if lane != nil {
		lane.Instant(obs.KMigrateIn, "", -1, int64(len(recs)))
	}
}

// ---- epoch application ----

// applyEpoch runs on the elastic loop when the EPOCH broadcast
// arrives. The rank's workers are paused at a tile boundary and the
// whole job is quiescent (that is what the coordinator's ACK
// collection proved), so the live table and its census are a
// consistent global cut. It recomputes ownership, extracts the live
// tiles this rank no longer owns, installs the new assignment and
// owned-tile total, resumes the workers, and only then ships the
// migration blobs — inline on the elastic loop, so this rank cannot
// acknowledge the *next* PREP before its blobs are on the wire (and
// therefore, by the quiescence rule, applied).
func (n *node) applyEpoch(epoch uint32, members []int, census []int64, lane *obs.Lane) {
	next, _, err := balance.Rebalance(n.owners.Load(), members, census)
	if err != nil {
		// Every input is protocol-carried state that all ranks compute
		// identically; a failure here is a protocol bug, not a user error.
		panic(fmt.Sprintf("engine: rank %d rebalance at epoch %d: %v", n.id, epoch, err))
	}

	// Extract the live tiles whose new owner is elsewhere. The queued
	// ones also sit in some shard queue — workers are paused with no
	// tile popped, so the queues hold all of them.
	out, queued := n.live.extract(n.id, next.Owner)
	if len(queued) > 0 {
		n.pool.RemoveIf(func(p *pendTile) bool { return queued[p] })
	}

	// New owned-tile total: everything this rank already executed plus
	// the globally unexecuted remainder of every slab it now owns.
	var remaining int64
	slabs := next.Slabs()
	for i := range slabs {
		if next.SlabOwner(i) == n.id {
			remaining += slabs[i].Tiles - census[i]
		}
	}

	n.owners.Store(next)
	n.curEpoch.Store(epoch)
	n.et.SetEpoch(epoch)
	n.mu.Lock()
	n.ownedTotal = n.executed + remaining
	n.st.Epochs++
	n.mu.Unlock()
	if lane != nil {
		lane.Instant(obs.KEpoch, "", -1, int64(epoch))
	}
	n.resumeWorkers()

	// Ship the extracted tiles. Sends may block on backpressure; that
	// is fine (workers are already running) and even load-bearing: the
	// elastic loop cannot reach the next PREP until the blobs are sent.
	var tilesOut, edgesOut int64
	for dst, tiles := range out {
		data := blobToFloats(sealBlob(appendRecords(nil, tiles)))
		for _, p := range tiles {
			edges, elems := releaseEdges(p, nil)
			n.pendingEdges.Add(-edges)
			n.bufferedElems.Add(-elems)
			edgesOut += edges
		}
		tilesOut += int64(len(tiles))
		n.rank.Send(dst, -1, data, nil)
		if lane != nil {
			lane.Instant(obs.KMigrateOut, "", int32(dst), int64(len(tiles)))
		}
	}
	if tilesOut > 0 || edgesOut > 0 {
		n.mu.Lock()
		n.st.TilesMigratedOut += tilesOut
		n.st.EdgesMigratedOut += edgesOut
		n.mu.Unlock()
	}
	// A leaver may now own exactly what it already executed.
	n.checkFinished()
}

// ---- the per-rank elastic loop ----

// elasticLoop is the rank's membership goroutine: participant protocol
// on every rank, plus the coordinator state machine on rank 0. It runs
// from launch until after the final result merge (so departed and
// standby ranks keep answering PREPs), stopping via n.stopElastic.
func (n *node) elasticLoop(lane *obs.Lane) {
	cfg := n.cfg.Elastic
	et := n.et
	world := n.cfg.Nodes

	// Coordinator state (rank 0 only).
	var (
		members    []int
		schedule   []ScaleEvent
		joiners    []int
		leaveReqs  []int
		leavesSeen int
		epoch      uint32
		acksLeft   int // ranks yet to ACK; 0 = no view change in flight
		census     []int64
		nextM      []int // member set of the in-flight view change
		finSent    bool
	)
	if n.id == 0 {
		members = append([]int(nil), n.prep.members...)
		schedule = append([]ScaleEvent(nil), cfg.ScaleAt...)
		sort.SliceStable(schedule, func(i, j int) bool {
			return schedule[i].AfterTiles < schedule[j].AfterTiles
		})
		census = make([]int64, len(n.owners.Load().Slabs()))
	}

	startView := func(m []int) {
		epoch++
		nextM = m
		acksLeft = world
		for i := range census {
			census[i] = 0
		}
		var pl [4]byte
		binary.LittleEndian.PutUint32(pl[:], epoch)
		for r := 0; r < world; r++ {
			et.SendElastic(r, mpi.ElasticEpochPrep, pl[:])
		}
	}

	// maybeAct runs the coordinator triggers: the scale schedule in
	// order, then queued voluntary leaves, then FIN. One view change at
	// a time. If rank 0 has finished its own tiles the remaining
	// schedule flushes immediately — its executed counter will never
	// advance past a threshold it has not already crossed.
	maybeAct := func() {
		if n.id != 0 || finSent || acksLeft > 0 {
			return
		}
		n.mu.Lock()
		ex := n.executed
		localDone := n.executed == n.ownedTotal
		n.mu.Unlock()
		for len(schedule) > 0 {
			ev := schedule[0]
			if ex < ev.AfterTiles && !localDone {
				return
			}
			if ev.Delta > 0 {
				take := ev.Delta
				if len(joiners) < take {
					if !localDone {
						return // wait for the announcements
					}
					take = len(joiners)
				}
				if take == 0 {
					schedule = schedule[1:]
					continue
				}
				m := append(append([]int(nil), members...), joiners[:take]...)
				sort.Ints(m)
				joiners = append([]int(nil), joiners[take:]...)
				schedule = schedule[1:]
				startView(m)
				return
			}
			// Shrink: drop the highest-ranked members; rank 0 (first,
			// since members stay sorted) is never removed.
			m := append([]int(nil), members...)
			for k := -ev.Delta; k > 0 && len(m) > 1; k-- {
				m = m[:len(m)-1]
			}
			schedule = schedule[1:]
			if len(m) == len(members) {
				continue
			}
			startView(m)
			return
		}
		if len(leaveReqs) > 0 {
			m := make([]int, 0, len(members))
			for _, r := range members {
				if !slices.Contains(leaveReqs, r) {
					m = append(m, r)
				}
			}
			leaveReqs = nil
			if len(m) < len(members) && len(m) >= 1 {
				startView(m)
				return
			}
		}
		if leavesSeen >= len(cfg.LeaveAfter) {
			for r := 0; r < world; r++ {
				et.SendElastic(r, mpi.ElasticFin, nil)
			}
			finSent = true
		}
	}

	handle := func(m mpi.ElasticMsg) bool {
		switch m.Kind {
		case mpi.ElasticJoin:
			if n.id != 0 {
				return true
			}
			if !slices.Contains(members, m.Src) && !slices.Contains(joiners, m.Src) && !slices.Contains(nextM, m.Src) {
				joiners = append(joiners, m.Src)
				sort.Ints(joiners)
			}
		case mpi.ElasticLeave:
			if n.id != 0 {
				return true
			}
			leavesSeen++
			if m.Src != 0 && !slices.Contains(leaveReqs, m.Src) {
				leaveReqs = append(leaveReqs, m.Src)
				sort.Ints(leaveReqs)
			}
		case mpi.ElasticEpochPrep:
			if len(m.Payload) < 4 {
				return true
			}
			if !n.cut(n.stopElastic) {
				return false
			}
			et.SendElastic(0, mpi.ElasticEpochAck, n.encodeAck(binary.LittleEndian.Uint32(m.Payload)))
		case mpi.ElasticEpochAck:
			if n.id != 0 || acksLeft == 0 {
				return true
			}
			got, err := mergeAck(m.Payload, census)
			if err != nil || got != epoch {
				panic(fmt.Sprintf("engine: coordinator: bad elastic ACK from rank %d for epoch %d (want %d): %v",
					m.Src, got, epoch, err))
			}
			acksLeft--
			if acksLeft == 0 {
				pl := encodeEpochPayload(epoch, nextM, census)
				for r := 0; r < world; r++ {
					et.SendElastic(r, mpi.ElasticEpoch, pl)
				}
				members = nextM
				nextM = nil
			}
		case mpi.ElasticEpoch:
			ep, mems, cen, err := decodeEpochPayload(m.Payload)
			if err != nil {
				panic(fmt.Sprintf("engine: rank %d: %v", n.id, err))
			}
			n.applyEpoch(ep, mems, cen, lane)
		case mpi.ElasticFin:
			n.mu.Lock()
			n.elasticFin = true
			n.mu.Unlock()
			n.checkFinished()
		}
		return true
	}

	if !slices.Contains(n.prep.members, n.id) {
		et.SendElastic(0, mpi.ElasticJoin, nil)
	}

	// maybeLeave is the zero-work fallback for the voluntary-leave
	// trigger in tileDone: a rank that owns no tiles at all (or finished
	// everything it owned before reaching its threshold) never executes
	// another tile, so the loop fires the request once the rank is
	// locally idle. Without it a tile-less leaver would leave rank 0
	// waiting on its leave forever.
	maybeLeave := func() {
		n.mu.Lock()
		fire := n.leaveAt >= 0 && (n.executed >= n.leaveAt || n.executed == n.ownedTotal)
		if fire {
			n.leaveAt = -1
		}
		n.mu.Unlock()
		if fire {
			et.SendElastic(0, mpi.ElasticLeave, nil)
		}
	}

	// The triggers read state only tileDone (which kicks) and handle
	// (applyEpoch included) change, so a check per wake-up misses nothing.
	for {
		maybeLeave()
		maybeAct()
		select {
		case <-n.stopElastic:
			return
		case m := <-et.ElasticCh():
			if !handle(m) {
				return
			}
		case <-n.kick:
		}
	}
}
