package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dpgen/internal/serve"
	inputs "dpgen/internal/workload"
)

// The serving workload: a closed loop — each client sends its next
// request only when the previous reply has arrived, as callers that wait
// for an answer do — of serveClients clients against a fresh server.

const (
	serveClients    = threads
	servePerClient  = 40 // requests per client per round
	serveRunMiss    = 26 // of servePerClient: base spec, a size not asked before
	serveMemoHit    = 10 // repeat of a query this client has had answered
	serveCompileMis = 4  // a spec text not seen before, and a new size
	serveMinN       = 280
	serveMaxN       = 410
)

type serveClass int

const (
	runMiss serveClass = iota
	memoHit
	compileMiss
)

var serveClassNames = [...]string{"run_miss", "memo_hit", "compile_miss"}

// triangleSpec is the served problem: the triangle i+j <= N with unit
// steps, under the server's "longest" kernel. Specs that differ in name
// canonicalise apart, so each name costs a compile.
func triangleSpec(name string) string {
	return "name " + name + `
params N
vars i j
constraint i >= 0
constraint j >= 0
constraint i + j <= N
dep down <1, 0>
dep right <0, 1>
balance i
tile 16 16
goal 0 0
`
}

type serveReq struct {
	class serveClass
	spec  string
	n     int64
}

type serveBench struct {
	// plan[c] is client c's request sequence, the same every round: the
	// server is fresh each round, so the classes repeat exactly.
	plan     [serveClients][]serveReq
	distinct []int64 // the sizes the floor solves, one per non-repeat request
}

func buildServe(env *environment) (bench, error) {
	b := &serveBench{}
	rng := inputs.NewLCG(env.seed)
	perClient := servePerClient
	if env.quick {
		perClient = 10
	}
	// Sizes are drawn without replacement, so no two misses share a key.
	sizes := make([]int64, 0, serveMaxN-serveMinN+1)
	for n := int64(serveMinN); n <= serveMaxN; n++ {
		sizes = append(sizes, n)
	}
	for i := len(sizes) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		sizes[i], sizes[j] = sizes[j], sizes[i]
	}
	variants := 0
	for c := range b.plan {
		classes := make([]serveClass, 0, perClient)
		for i := 0; i < perClient; i++ {
			switch {
			case i*servePerClient < serveRunMiss*perClient:
				classes = append(classes, runMiss)
			case i*servePerClient < (serveRunMiss+serveMemoHit)*perClient:
				classes = append(classes, memoHit)
			default:
				classes = append(classes, compileMiss)
			}
		}
		// Shuffle all but the first, which stays a miss: a repeat needs
		// an answered query before it.
		for i := len(classes) - 1; i > 1; i-- {
			j := 1 + rng.Intn(i)
			classes[i], classes[j] = classes[j], classes[i]
		}
		var answered []serveReq
		for _, class := range classes {
			var q serveReq
			switch class {
			case memoHit:
				q = answered[rng.Intn(len(answered))]
				q.class = memoHit
			case runMiss:
				q = serveReq{class, triangleSpec("tri"), sizes[len(b.distinct)]}
			case compileMiss:
				variants++
				q = serveReq{class, triangleSpec(fmt.Sprintf("tri%d", variants)), sizes[len(b.distinct)]}
			}
			if class != memoHit {
				b.distinct = append(b.distinct, q.n)
				answered = append(answered, q)
			}
			b.plan[c] = append(b.plan[c], q)
		}
	}
	return b, nil
}

// startServer is the serving set-up: a server listening on a free
// loopback port with the base spec compiled.
func (b *serveBench) startServer(sp *spans, parent spanID) (*serve.HTTPServer, error) {
	id := sp.begin("serve.New+Listen", parent)
	h, err := serve.New(serve.Options{MaxConcurrentRuns: threads, MaxThreads: threads}).Listen("127.0.0.1:0")
	sp.end(id)
	if err != nil {
		return nil, err
	}
	id = sp.begin("POST /v1/compile", parent)
	defer sp.end(id)
	body, _ := json.Marshal(serve.QueryRequest{Spec: triangleSpec("tri")}) // a struct of strings and ints marshals
	resp, err := http.Post("http://"+h.Addr()+"/v1/compile", "application/json", bytes.NewReader(body))
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body) // best effort: the status is the error
			err = fmt.Errorf("first compile: HTTP %d: %s", resp.StatusCode, msg)
		}
	}
	if err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

func (b *serveBench) setUp(sp *spans, parent spanID) (instance, error) {
	h, err := b.startServer(sp, parent)
	if err != nil {
		return nil, err
	}
	return &serveInst{b: b, h: h, cur: make([]float64, serveMaxN+2), next: make([]float64, serveMaxN+2)}, nil
}

type serveInst struct {
	b         *serveBench
	h         *serve.HTTPServer // started and not yet queried; nil once used
	cur, next []float64
}

func (in *serveInst) close() {
	if in.h != nil {
		in.h.Close()
	}
}

func (in *serveInst) cells() int64 {
	var c int64
	for _, n := range in.b.distinct {
		c += (n + 1) * (n + 2) / 2
	}
	return c
}

// floor solves each distinct instance once with the two-row loop and
// answers every request, repeats included, from those.
func (in *serveInst) floor() []float64 {
	solved := make(map[int64]float64, len(in.b.distinct))
	for _, n := range in.b.distinct {
		solved[n] = floorTriangleLongest(n, in.cur, in.next)
	}
	var out []float64
	for _, plan := range in.b.plan {
		for _, q := range plan {
			out = append(out, solved[q.n])
		}
	}
	return out
}

type serveReply struct {
	value    float64
	class    serveClass
	latency  time.Duration
	serverMS float64 // compileMs + runMs, as the server reports them
	err      error
}

func (in *serveInst) solve(sp *spans, parent spanID, lay layers) ([]float64, time.Duration, error) {
	h := in.h
	in.h = nil
	if h == nil {
		var err error
		if h, err = in.b.startServer(sp, parent); err != nil {
			return nil, 0, err
		}
	}
	defer h.Close()
	url := "http://" + h.Addr()

	replies := make([][]serveReply, serveClients)
	var wg sync.WaitGroup
	id := sp.begin("serve clients", parent)
	t0 := time.Now()
	for c := range replies {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for _, q := range in.b.plan[c] {
				qid := sp.begin("POST /v1/query "+serveClassNames[q.class], id)
				replies[c] = append(replies[c], query(client, url, q))
				sp.end(qid)
			}
		}(c)
	}
	wg.Wait()
	took := time.Since(t0)
	sp.end(id)

	var answers []float64
	for _, rs := range replies {
		for _, r := range rs {
			if r.err != nil {
				return nil, 0, r.err
			}
			answers = append(answers, r.value)
		}
	}
	if lay != nil {
		if err := recordServe(lay, url, replies); err != nil {
			return nil, 0, err
		}
	}
	return answers, took, nil
}

// query sends one request and waits for its reply. A shed or failed
// request is an error: the mix is sized so that none is refused.
func query(client *http.Client, url string, q serveReq) serveReply {
	body, _ := json.Marshal(serve.QueryRequest{Spec: q.spec, Kernel: "longest", Params: []int64{q.n}, Threads: 1}) // marshals
	t0 := time.Now()
	resp, err := client.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return serveReply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	latency := time.Since(t0)
	if err != nil {
		return serveReply{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return serveReply{err: fmt.Errorf("query N=%d: HTTP %d: %s", q.n, resp.StatusCode, data)}
	}
	var r serve.QueryResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return serveReply{err: err}
	}
	class := runMiss
	switch {
	case r.Cached:
		class = memoHit
	case !r.CompileCached:
		class = compileMiss
	}
	return serveReply{value: r.Value, class: class, latency: latency, serverMS: r.CompileMs + r.RunMs}
}

// recordServe classifies a round's replies by the server's own response
// flags and reads its shed and coalesce counters.
func recordServe(lay layers, url string, replies [][]serveReply) error {
	var byClass [len(serveClassNames)][]float64
	var self []float64
	var runMS float64
	for _, rs := range replies {
		for _, r := range rs {
			ms := float64(r.latency) / 1e6
			byClass[r.class] = append(byClass[r.class], ms)
			if r.class != memoHit {
				self = append(self, ms-r.serverMS)
			}
			runMS += r.serverMS
		}
	}
	for class, name := range serveClassNames {
		lay.add(name+"_ms", median(byClass[class]))
	}
	lay.add("run_misses", float64(len(byClass[runMiss])))
	lay.add("memo_hits", float64(len(byClass[memoHit])))
	lay.add("compile_misses", float64(len(byClass[compileMiss])))
	lay.add("serve_self_ms", median(self))
	// The engine's share of the round, as the server reports it.
	lay.add("run_ms", runMS)

	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("/v1/stats: %w", err)
	}
	lay.add("coalesced", float64(st.Coalesced))
	lay.add("shed", float64(st.Shed))
	return nil
}

func (in *serveInst) probe(sp *spans, parent spanID, lay layers) error {
	// What a compile-miss and a run-miss pay inside the server, timed
	// here through the same public calls at the mix's middle size.
	for i := 0; i < 3; i++ {
		if _, err := analyze(sp, parent, triangleSpec("tri"), []int64{(serveMinN + serveMaxN) / 2}, 1); err != nil {
			return err
		}
	}
	recordSetUp(sp, lay)
	return nil
}
