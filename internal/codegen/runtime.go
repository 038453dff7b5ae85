package codegen

// runtimeSrc is the generated side of the runtime of Section V: what
// binds the generated dp* symbols to the tile runtime, whose source
// (dpgen/internal/sched: the ready pool, the pending-tile table and the
// edge-buffer stack) is emitted ahead of this text, instantiated here
// with fixed-size tile arrays. It holds the ownership scan, edge
// delivery, tile execution and main. It deliberately avoids backquoted
// strings so it can live in this raw literal.
const runtimeSrc = `// ---- hybrid runtime (generated, problem independent) ----
//
// The runtime above (Pool, Item, Table, Key, Bufs) is the generator
// library's own, instantiated with this program's tile type.
//
// Inter-node edges travel over bounded channels with send-buffer
// slots, the in-memory form of the transport contract specified in
// docs/TRANSPORT.md of the generator repository; the same backpressure
// semantics apply to its framed-TCP implementation.

var (
	flagNodes    = flag.Int("nodes", 1, "simulated MPI ranks")
	flagThreads  = flag.Int("threads", runtime.NumCPU(), "worker threads per node (OpenMP analog)")
	flagSendBufs = flag.Int("sendbufs", 4, "send buffers per node")
	flagRecvBufs = flag.Int("recvbufs", 16, "receive buffers per node")
	flagStats    = flag.Bool("stats", false, "print per-node statistics")
)

func dpCeilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

func dpFloorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// dpDepCount counts the tile dependencies of t that exist in the tile
// space; a tile becomes ready when that many edges have arrived.
func dpDepCount(t *[dpDims]int64) int {
	n := 0
	for j := 0; j < dpNumTileDeps; j++ {
		var p [dpDims]int64
		for k := 0; k < dpDims; k++ {
			p[k] = t[k] + dpTileDepOffsets[j][k]
		}
		if dpTileInSpace(&p) {
			n++
		}
	}
	return n
}

// dpKeyOf builds the column-major priority key of Figure 5:
// load-balancing dimensions first, each oriented so that smaller keys
// execute earlier.
func dpKeyOf(t *[dpDims]int64) [dpDims]int64 {
	var k [dpDims]int64
	for i := 0; i < dpDims; i++ {
		k[i] = dpKeyDirs[i] * t[dpKeyDims[i]]
	}
	return k
}

// dpBuildOwnership statically assigns tiles to g's nodes. One pass over the
// tile space takes the tile bounds, the box of the pending table's keys;
// a second counts each slab's work and tiles, with the initial tiles
// (Section IV-K). The work is accumulated in slab-key order, which is
// priority-lexicographic, and cut into equal-work contiguous ranges
// (Section IV-J).
func dpBuildOwnership(g *dpGlobal) error {
	nodes := len(g.nodes)
	var lo, hi [dpDims]int64
	for k := range lo {
		lo[k], hi[k] = math.MaxInt64, math.MinInt64
	}
	dpForEachTile(func(t [dpDims]int64) bool {
		for k, v := range t {
			lo[k], hi[k] = min(lo[k], v), max(hi[k], v)
		}
		return true
	})
	// The priority key's dimensions are the load-balancing ones, then
	// the rest.
	var err error
	if g.slab, err = NewKey(dpLBIdx[:], lo[:], hi[:]); err != nil {
		return err
	}
	if g.rest, err = NewKey(dpKeyDims[dpNumLB:], lo[:], hi[:]); err != nil {
		return err
	}
	work, tiles := make([]int64, g.slab.Len()), make([]int64, g.slab.Len())
	g.owner, g.expect, g.ownedTotal = make([]int, len(work)), make([]int64, len(work)), make([]int64, nodes)
	dpForEachTile(func(t [dpDims]int64) bool {
		k, _ := g.slab.Of(t[:])
		c := dpTileCellCount(&t)
		work[k] += c
		g.totalWork += c
		tiles[k]++
		if dpDepCount(&t) == 0 {
			g.initial = append(g.initial, t)
		} else {
			g.expect[k]++
		}
		return true
	})
	var cum int64
	for k, w := range work {
		if tiles[k] == 0 {
			continue
		}
		n := min(int((cum+w/2)*int64(nodes)/g.totalWork), nodes-1)
		g.owner[k] = n
		g.ownedTotal[n] += tiles[k]
		cum += w
	}
	return nil
}

// ---- scheduler data structures (Section V-B) ----

type dpMsg struct {
	dep      int
	consumer [dpDims]int64
	data     []dpElem
	slot     chan struct{}
}

// dpTile is this program's per-tile state inside a scheduler item.
type dpTile struct {
	at    [dpDims]int64
	key   [dpDims]int64           // backs the item's Key
	edges [dpNumTileDeps][]dpElem // received edges by tile dependence, nil until it arrives
}

type dpItem = Item[dpTile]

// newItem builds the scheduler item of tile t, whose pending-table keys
// are pk and rk, on node n's pool.
func (n *dpNode) newItem(t [dpDims]int64, pk, rk uint64) *dpItem {
	p := &dpItem{PK: pk, RK: rk, Tile: dpTile{at: t, key: dpKeyOf(&t)}}
	p.Key = p.Tile.key[:]
	return p
}

type dpNode struct {
	id int

	pending *Table[dpTile]
	pool    *Pool[dpTile]

	owned    int64
	executed atomic.Int64

	inbox chan dpMsg
	slots chan struct{}

	recvRemote, liveEdges, peakEdges atomic.Int64

	// workers holds each worker's private state, for main to fold once
	// they have exited.
	workers []*dpWorker
}

// dpWorker is what one worker thread owns and no other touches: its
// tile buffer, its counters and tile maximum, and a free stack of edge
// buffers. A buffer is pushed when the tile that received it has
// unpacked it and popped for the next pack, so an edge's storage moves
// with the data, between workers and between nodes alike, and retires
// wherever it was consumed. A full stack leaves the buffer to the
// garbage collector; an empty one allocates.
type dpWorker struct {
	id   int // the worker's index: its shard of the ready pool
	V    []dpElem
	bufs Bufs[dpElem]

	tiles, cells, sentRemote, localEdges, sentElems, bufsAlloc int64

	maxVal dpElem
	maxSet bool
}

// add folds another worker's counters and tile maximum into w.
func (w *dpWorker) add(o *dpWorker) {
	w.tiles += o.tiles
	w.cells += o.cells
	w.sentRemote += o.sentRemote
	w.localEdges += o.localEdges
	w.sentElems += o.sentElems
	w.bufsAlloc += o.bufsAlloc
	if o.maxSet && (!w.maxSet || o.maxVal > w.maxVal) {
		w.maxVal, w.maxSet = o.maxVal, true
	}
}

// dpGlobal is the run: the ownership scan's findings — the pending
// table's keys over the tile bounds and, by slab key, each slab's owner
// and expected pending entries (its tiles less its initial ones, which
// no edge announces) — and the nodes.
type dpGlobal struct {
	slab, rest *Key
	owner      []int
	expect     []int64
	ownedTotal []int64 // by node
	initial    [][dpDims]int64
	totalWork  int64

	nodes []*dpNode
	wg    sync.WaitGroup

	goalMu  sync.Mutex
	goalVal dpElem
	goalSet bool
}

// ownerOf returns the node owning tile t.
func (g *dpGlobal) ownerOf(t *[dpDims]int64) int {
	k, _ := g.slab.Of(t[:])
	return g.owner[k]
}

func (n *dpNode) worker(g *dpGlobal, w int) {
	// A tile unpacks and packs at most one edge per tile dependence, so
	// twice that many buffers ride out any alternation of the two.
	ws := &dpWorker{id: w, V: make([]dpElem, dpAllocLen), bufs: NewBufs[dpElem](2*dpNumTileDeps, dpMaxEdgeCap)}
	n.workers[w] = ws
	for {
		e0 := n.pool.Epoch()
		if p, _ := n.pool.Pop(w); p != nil {
			n.exec(g, p, ws)
			continue
		}
		if _, open := n.pool.Park(e0); !open {
			return
		}
	}
}

func (n *dpNode) receiver(g *dpGlobal) {
	for m := range n.inbox {
		n.recvRemote.Add(1)
		pk, rk := n.pending.Keys(m.consumer[:])
		n.deliver(m.dep, m.consumer, pk, rk, m.data, -1)
		<-m.slot // release the sender's send buffer
	}
}

// deliver files one edge in the node's pending table, at the consumer's
// keys pk and rk; the tile moves to the ready pool when its last edge
// arrives, onto worker w's shard (w < 0: the receiver's, hashed).
func (n *dpNode) deliver(dep int, consumer [dpDims]int64, pk, rk uint64, data []dpElem, w int) {
	pg, slot := n.pending.Lookup(pk, rk)
	p := slot.Load()
	if p == nil {
		fresh := n.newItem(consumer, pk, rk)
		fresh.Missing.Store(int64(dpDepCount(&consumer)))
		p, _ = n.pending.Install(slot, fresh)
	}
	p.Tile.edges[dep] = data
	AtomicMax(&n.peakEdges, n.liveEdges.Add(1))
	if n.pending.Arrive(pg, slot, p) {
		n.pool.Push(p, w)
	}
}

func (n *dpNode) exec(g *dpGlobal, p *dpItem, w *dpWorker) {
	// Unpack received edges into the ghost shell.
	tile, V := &p.Tile.at, w.V
	var unpacked int64
	for dep, data := range p.Tile.edges {
		if data == nil {
			continue
		}
		var prod [dpDims]int64
		for k := 0; k < dpDims; k++ {
			prod[k] = tile[k] + dpTileDepOffsets[dep][k]
		}
		dpUnpackEdge(dep, &prod, V, data)
		w.bufs.Put(data)
		p.Tile.edges[dep] = nil
		unpacked++
	}
	n.liveEdges.Add(-unpacked)

	cells, tmax := dpExecTile(tile, V)

	if *tile == dpGoalTile {
		g.goalMu.Lock()
		g.goalVal = V[dpGoalLocIndex]
		g.goalSet = true
		g.goalMu.Unlock()
	}
	if cells > 0 && (!w.maxSet || tmax > w.maxVal) {
		w.maxVal = tmax
		w.maxSet = true
	}
	w.tiles++
	w.cells += cells

	// Pack and ship the outgoing edges.
	for j := 0; j < dpNumTileDeps; j++ {
		var consumer [dpDims]int64
		for k := 0; k < dpDims; k++ {
			consumer[k] = tile[k] - dpTileDepOffsets[j][k]
		}
		if !dpTileInSpace(&consumer) {
			continue
		}
		data, ok := w.bufs.Get(dpMaxEdgeCap)
		if !ok {
			w.bufsAlloc++
			data = make([]dpElem, dpMaxEdgeCap)
		}
		data = data[:dpPackEdge(j, tile, V, data[:dpEdgeCap[j]:dpEdgeCap[j]])]
		dst := g.ownerOf(&consumer)
		if dst == n.id {
			pk, rk := n.pending.Consumer(p, j)
			n.deliver(j, consumer, pk, rk, data, w.id)
			w.localEdges++
		} else {
			n.slots <- struct{}{}
			g.nodes[dst].inbox <- dpMsg{dep: j, consumer: consumer, data: data, slot: n.slots}
			w.sentRemote++
			w.sentElems += int64(len(data))
		}
	}
	if n.executed.Add(1) == n.owned {
		g.wg.Done()
	}
}

func main() {
	dpRegisterFlags()
	flag.Parse()
	dpUserInit()
	nodes, threads := *flagNodes, *flagThreads
	if nodes < 1 || threads < 1 || *flagSendBufs < 1 || *flagRecvBufs < 1 {
		fmt.Fprintln(os.Stderr, "invalid -nodes/-threads/-sendbufs/-recvbufs")
		os.Exit(2)
	}
	start := time.Now()
	g := &dpGlobal{nodes: make([]*dpNode, nodes)}
	if err := dpBuildOwnership(g); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(g.initial) == 0 {
		fmt.Fprintln(os.Stderr, "no initial tiles: empty space or cyclic dependencies")
		os.Exit(1)
	}
	offsets := make([][]int64, dpNumTileDeps)
	for j := range offsets {
		offsets[j] = dpTileDepOffsets[j][:]
	}
	for i := range g.nodes {
		g.nodes[i] = &dpNode{
			id:      i,
			pending: NewTable[dpTile](g.slab, g.rest, g.expect, offsets),
			pool:    NewPool[dpTile](threads, ColumnMajor),
			inbox:   make(chan dpMsg, *flagRecvBufs),
			slots:   make(chan struct{}, *flagSendBufs),
			owned:   g.ownedTotal[i],
			workers: make([]*dpWorker, threads),
		}
	}
	for _, t := range g.initial {
		n := g.nodes[g.ownerOf(&t)]
		pk, rk := n.pending.Keys(t[:])
		n.pool.Push(n.newItem(t, pk, rk), -1)
	}
	initSecs := time.Since(start).Seconds()

	g.wg.Add(nodes)
	var workers, receivers sync.WaitGroup
	for _, n := range g.nodes {
		if n.owned == 0 {
			g.wg.Done()
		}
		receivers.Add(1)
		go func(n *dpNode) {
			defer receivers.Done()
			n.receiver(g)
		}(n)
		for w := 0; w < threads; w++ {
			workers.Add(1)
			go func(n *dpNode, w int) {
				defer workers.Done()
				n.worker(g, w)
			}(n, w)
		}
	}
	g.wg.Wait()
	for _, n := range g.nodes {
		close(n.inbox)
	}
	for _, n := range g.nodes {
		n.pool.Close()
	}
	workers.Wait()
	receivers.Wait()
	elapsed := time.Since(start).Seconds()

	if !g.goalSet {
		fmt.Fprintln(os.Stderr, "goal tile never executed")
		os.Exit(1)
	}
	totals := make([]dpWorker, nodes) // each node's workers, folded
	var all dpWorker
	for i, n := range g.nodes {
		for _, w := range n.workers {
			totals[i].add(w)
		}
		all.add(&totals[i])
	}
	fmt.Printf("problem %s\n", dpProblemName)
	fmt.Printf("value %.17g\n", float64(g.goalVal))
	fmt.Printf("max %.17g\n", float64(all.maxVal))
	fmt.Printf("locations %d\n", g.totalWork)
	fmt.Printf("init_seconds %.6f\n", initSecs)
	fmt.Printf("total_seconds %.6f\n", elapsed)
	if *flagStats {
		for i, n := range g.nodes {
			steals, localPops, _ := n.pool.Counts()
			t := &totals[i]
			fmt.Printf("node %d tiles %d cells %d sent %d sent_elems %d recv %d local %d peak_edges %d steals %d local_pops %d bufs_alloc %d\n",
				n.id, t.tiles, t.cells, t.sentRemote, t.sentElems, n.recvRemote.Load(), t.localEdges, n.peakEdges.Load(), steals, localPops, t.bufsAlloc)
		}
	}
}
`
