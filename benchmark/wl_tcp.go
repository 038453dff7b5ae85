package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dpgen/internal/engine"
	"dpgen/internal/mpi/tcp"
	"dpgen/internal/obs"
	"dpgen/internal/problems"
)

// tcpRanks is the rank count of the distributed workload, one thread
// each, so the total stays at threads.
const tcpRanks = 2

// tcpBench is bandit2 on two ranks of the engine joined by the TCP
// transport over loopback. The ranks are goroutines of this process, but
// each analyses the spec for itself and owns its transport endpoint, as
// separate processes would.
type tcpBench struct {
	env      *environment
	specText string
	kernel   engine.Kernel
	N        int64
}

func buildBandit2TCP(env *environment) (bench, error) {
	text, err := readSpec(env, "bandit2.dps")
	if err != nil {
		return nil, err
	}
	return &tcpBench{env: env, specText: text, kernel: problems.Bandit2().Kernel, N: bandit2N(env)}, nil
}

// perRank runs f once per rank, concurrently, and returns the first error.
func perRank(f func(r int) error) error {
	errs := make([]error, tcpRanks)
	var wg sync.WaitGroup
	for r := 0; r < tcpRanks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = f(r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// dialMesh brings up a fresh loopback mesh: a run closes the transport
// it was given, so every solve needs its own.
func dialMesh(sp *spans, parent spanID, opts tcp.Options) ([]*tcp.Transport, error) {
	id := sp.begin("tcp.Dial", parent)
	defer sp.end(id)
	lns := make([]net.Listener, tcpRanks)
	peers := make([]string, tcpRanks)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:r] {
				l.Close()
			}
			return nil, err
		}
		lns[r], peers[r] = ln, ln.Addr().String()
	}
	mesh := make([]*tcp.Transport, tcpRanks)
	err := perRank(func(r int) error {
		o := opts
		o.Listener = lns[r]
		o.DialTimeout = 15 * time.Second
		var err error
		mesh[r], err = tcp.Dial(r, peers, o)
		return err
	})
	if err != nil {
		closeMesh(mesh)
		return nil, err
	}
	return mesh, nil
}

// closeMesh closes every endpoint at once: a graceful Close waits for
// the peers' goodbyes.
func closeMesh(mesh []*tcp.Transport) {
	var wg sync.WaitGroup
	for _, t := range mesh {
		if t != nil {
			wg.Add(1)
			go func(t *tcp.Transport) {
				defer wg.Done()
				t.Close()
			}(t)
		}
	}
	wg.Wait()
}

func (b *tcpBench) setUp(sp *spans, parent spanID) (instance, error) {
	in := &tcpInst{b: b, preps: make([]*engine.Prepared, tcpRanks)}
	err := perRank(func(r int) error {
		var err error
		in.preps[r], err = analyze(sp, parent, b.specText, []int64{b.N}, tcpRanks)
		return err
	})
	if err != nil {
		return nil, err
	}
	if in.mesh, err = dialMesh(sp, parent, tcp.Options{}); err != nil {
		return nil, err
	}
	in.cur, in.next = make([]float64, bandit2Row(b.N)), make([]float64, bandit2Row(b.N))
	return in, nil
}

type tcpInst struct {
	b         *tcpBench
	preps     []*engine.Prepared
	mesh      []*tcp.Transport // dialled and not yet run on; nil once used
	cur, next []float64
}

func (in *tcpInst) floor() []float64 { return []float64{floorBandit2(in.b.N, in.cur, in.next)} }
func (in *tcpInst) cells() int64     { return bandit2Cells(in.b.N) }
func (in *tcpInst) close()           { closeMesh(in.mesh) }

// run executes one two-rank solve over a mesh dialled with opts (the
// set-up's own mesh, if it is still unused and opts is the default).
func (in *tcpInst) run(sp *spans, parent spanID, opts tcp.Options, cfg func(r int) engine.Config) ([]*engine.Result, time.Duration, error) {
	mesh := in.mesh
	in.mesh = nil
	if mesh == nil || opts.Recovery {
		closeMesh(mesh)
		var err error
		if mesh, err = dialMesh(sp, parent, opts); err != nil {
			return nil, 0, err
		}
	}
	results := make([]*engine.Result, tcpRanks)
	id := sp.begin("engine.Run x2", parent)
	t0 := time.Now()
	err := perRank(func(r int) error {
		c := cfg(r)
		c.Transport = mesh[r] // the run takes ownership and closes it
		c.Threads = threads / tcpRanks
		rid := sp.begin(fmt.Sprintf("engine.Run rank %d", r), id)
		defer sp.end(rid)
		var err error
		results[r], err = in.preps[r].Run(in.b.kernel, c)
		return err
	})
	took := time.Since(t0)
	sp.end(id)
	if err != nil {
		return nil, 0, err
	}
	if math.Float64bits(results[0].Value) != math.Float64bits(results[1].Value) {
		return nil, 0, fmt.Errorf("ranks disagree: %v and %v", results[0].Value, results[1].Value)
	}
	return results, took, nil
}

func (in *tcpInst) solve(sp *spans, parent spanID, lay layers) ([]float64, time.Duration, error) {
	tracers := make([]*obs.Tracer, tcpRanks)
	results, took, err := in.run(sp, parent, tcp.Options{}, func(r int) engine.Config {
		if lay == nil {
			return engine.Config{}
		}
		tracers[r] = newEngineTracer()
		return engine.Config{Tracer: tracers[r]}
	})
	if err != nil {
		return nil, 0, err
	}
	if lay != nil {
		recordEngine(sp, parent, lay, results, tracers, threads/tcpRanks)
	}
	return []float64{results[0].Value}, took, nil
}

func (in *tcpInst) probe(sp *spans, parent spanID, lay layers) error {
	recordSetUp(sp, lay)
	probePack(sp, parent, lay, in.preps[0].Tiling())

	// Checkpointing every 64 tiles over a recovery-enabled mesh, against
	// a plain run timed just before it.
	plain, plainTook, err := in.run(sp, parent, tcp.Options{}, func(int) engine.Config { return engine.Config{} })
	if err != nil {
		return err
	}
	dir := filepath.Join(in.b.env.scratch, "ckpt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ck, ckTook, err := in.run(sp, parent, tcp.Options{Recovery: true}, func(int) engine.Config {
		return engine.Config{Checkpoint: engine.CheckpointConfig{Dir: dir, EveryTiles: 64}}
	})
	if err != nil {
		return err
	}
	if ck[0].Value != plain[0].Value {
		return fmt.Errorf("checkpointed run's value %v differs from the plain run's %v", ck[0].Value, plain[0].Value)
	}
	var n, bytes int64
	for r, res := range ck {
		n += res.Stats[r].Checkpoints
		bytes += res.Stats[r].CheckpointBytes
	}
	lay.add("checkpoints", float64(n))
	lay.add("ckpt_bytes", float64(bytes))
	lay.add("ckpt_overhead_x", float64(ckTook)/float64(plainTook))
	lay.add("dial_ms", median(sp.ms("tcp.Dial")))

	// The transports alone, at this workload's mean edge size.
	return probeTransports(sp, parent, lay, int(plain[0].Elems/plain[0].Messages))
}
