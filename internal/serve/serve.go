// Package serve is the multi-tenant DP query service behind cmd/dpserve:
// a long-running HTTP daemon that accepts spec text (or builtin problem
// names) plus parameters and answers with goal values computed by the
// in-process hybrid runtime.
//
// The expensive artifact is the compiled spec — the Fourier–Motzkin
// nests, Ehrhart counts, tiling, pack/unpack scans of dpgen/internal/
// tiling plus the per-(params, nodes) load balance of engine.Prepare —
// so the server is built around amortizing it:
//
//   - a compiled-spec cache keyed by the content hash of the
//     canonicalized spec (canonical.go), with compile failures cached
//     negatively so a bad spec is rejected from cache instead of
//     re-occupying the compile queue;
//   - request coalescing: identical in-flight (spec, kernel, params)
//     queries share one engine run via singleflight (single.go);
//   - a size-bounded LRU result memo (lru.go) — results are
//     bit-identical across node/thread configurations by the
//     engine's determinism guarantee, so the memo key deliberately
//     excludes them;
//   - admission control (admission.go): bounded compile and run queues
//     plus per-tenant concurrency caps, shedding with 429 + Retry-After
//     under overload and 503 while draining.
//
// Per-tenant Prometheus families and compile/run/request latency
// histograms are served at /metrics (metrics.go). docs/SERVING.md is
// the operator reference.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dpgen/internal/balance"
	"dpgen/internal/engine"
	"dpgen/internal/obs"
	"dpgen/internal/problems"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// Options configures a Server. Zero values select the noted defaults.
type Options struct {
	// MaxConcurrentRuns bounds engine runs in flight (default
	// runtime.GOMAXPROCS(0)); MaxRunQueue bounds requests waiting for a
	// run slot (default 64) — beyond it, requests shed with 429.
	MaxConcurrentRuns int
	MaxRunQueue       int
	// MaxConcurrentCompiles bounds spec compiles in flight (default 2);
	// MaxCompileQueue bounds waiters (default 16).
	MaxConcurrentCompiles int
	MaxCompileQueue       int
	// TenantConcurrency caps one tenant's concurrent admitted requests
	// (default MaxConcurrentRuns); TenantQueue its waiters (default
	// MaxRunQueue).
	TenantConcurrency int
	TenantQueue       int
	// SpecCacheEntries bounds the compiled-spec cache (default 256
	// entries, including negative entries).
	SpecCacheEntries int
	// MaxNodes and MaxThreads cap what a request may ask for (defaults
	// 8 and runtime.GOMAXPROCS(0)).
	MaxNodes   int
	MaxThreads int
}

// The result memo's bounds and the request body cap are constants, not
// Options: a request that must not be memoized says so itself
// (QueryRequest.NoResultCache).
const (
	resultCacheEntries = 4096
	resultCacheBytes   = 16 << 20
	maxBodyBytes       = 1 << 20 // a request body, spec text included
)

func (o Options) withDefaults() Options {
	if o.MaxConcurrentRuns <= 0 {
		o.MaxConcurrentRuns = runtime.GOMAXPROCS(0)
	}
	if o.MaxRunQueue == 0 {
		o.MaxRunQueue = 64
	}
	if o.MaxConcurrentCompiles <= 0 {
		o.MaxConcurrentCompiles = 2
	}
	if o.MaxCompileQueue == 0 {
		o.MaxCompileQueue = 16
	}
	if o.TenantConcurrency <= 0 {
		o.TenantConcurrency = o.MaxConcurrentRuns
	}
	if o.TenantQueue == 0 {
		o.TenantQueue = o.MaxRunQueue
	}
	if o.SpecCacheEntries <= 0 {
		o.SpecCacheEntries = 256
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 8
	}
	if o.MaxThreads <= 0 {
		o.MaxThreads = runtime.GOMAXPROCS(0)
	}
	return o
}

// Server is the multi-tenant query service. Create with New, mount
// Handler on any HTTP server or use Listen, stop accepting with Drain.
type Server struct {
	opts  Options
	start time.Time
	met   *metrics

	texts       *lruCache // "s:"+SHA-256 of spec text or "p:"+problem name -> textEntry
	specCache   *lruCache // spec hash -> *compiledSpec
	resultCache *lruCache // result key -> memoResult
	flights     flightGroup

	compileGate *gate
	runGate     *gate
	tenants     *tenantGates

	draining atomic.Bool

	// testRunStarted, when set by tests, is invoked at the start of
	// every engine run (inside the run slot); testParsed whenever a
	// request's spec is resolved from its text or name rather than from
	// the text index.
	testRunStarted func()
	testParsed     func()
}

// compiledSpec is one compiled-spec cache entry: the parsed spec and
// its tiling analysis, or the negatively cached compile failure, plus
// the most recently used prepared per-(params, nodes) run fronts.
type compiledSpec struct {
	hash      string
	canonical string
	sp        *spec.Spec
	tl        *tiling.Tiling
	err       error // non-nil: negative entry
	compileMs float64

	prepared *lruCache // "nodes|params" -> *engine.Prepared
}

// preparedPerSpec bounds one spec's prepared run fronts. Each holds an
// instance's slab counts, initial tiles and row plan, so a tenant
// cycling through parameter values would otherwise grow the entry for
// as long as the spec stays cached. A front is cheap to rebuild
// (engine.Prepare is one pass over the tiles), and the result memo
// answers repeated instances before this cache is consulted.
const preparedPerSpec = 64

// memoResult is one result-memo entry.
type memoResult struct {
	value float64
	max   float64
	cells int64
}

// memoResultCost is the approximate per-entry result-memo footprint:
// three 8-byte fields, the key string, map/list overhead.
const memoResultCost = 160

// New creates a Server with the given options.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		opts:        opts,
		start:       time.Now(),
		met:         newMetrics(),
		texts:       newLRU(opts.SpecCacheEntries, 0),
		specCache:   newLRU(opts.SpecCacheEntries, 0),
		resultCache: newLRU(resultCacheEntries, resultCacheBytes),
		compileGate: newGate(opts.MaxConcurrentCompiles, opts.MaxCompileQueue),
		runGate:     newGate(opts.MaxConcurrentRuns, opts.MaxRunQueue),
		tenants:     newTenantGates(opts.TenantConcurrency, opts.TenantQueue),
	}
}

// Drain makes the server refuse new queries with 503 while in-flight
// requests finish — the shutdown half of load shedding.
func (s *Server) Drain() { s.draining.Store(true) }

// Handler returns the server's HTTP handler: /v1/query, /v1/compile,
// /v1/catalog, /v1/stats, /metrics, /healthz and /debug/pprof/*.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/compile", s.handleCompile)
	mux.HandleFunc("/v1/catalog", s.handleCatalog)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.Handle("/metrics", obs.MetricsHandler(func(w io.Writer) error { return s.met.writePrometheus(w, s) }))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// HTTPServer is a running HTTP endpoint for one Server (Listen).
type HTTPServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound address (useful with port :0).
func (h *HTTPServer) Addr() string { return h.ln.Addr().String() }

// Close stops the endpoint.
func (h *HTTPServer) Close() error { return h.srv.Close() }

// Shutdown closes the listener and returns once every in-flight
// request has finished, or with ctx's error when ctx ends first. Call
// the Server's Drain before it so that queries still arriving on open
// connections get 503 instead of starting runs.
func (h *HTTPServer) Shutdown(ctx context.Context) error { return h.srv.Shutdown(ctx) }

// Listen serves the Handler on addr (host:port; port 0 picks a free
// one) in a background goroutine.
func (s *Server) Listen(addr string) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	h := &HTTPServer{ln: ln, srv: &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}}
	go h.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return h, nil
}

// apiError is an error with an HTTP status and a stable code; shed
// errors additionally carry a Retry-After estimate.
type apiError struct {
	status     int
	code       string
	msg        string
	retryAfter int
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: ErrBadRequest, msg: fmt.Sprintf(format, args...)}
}

func shedError(g *gate) *apiError {
	return &apiError{
		status:     http.StatusTooManyRequests,
		code:       ErrOverloaded,
		msg:        "serve: overloaded, queue full",
		retryAfter: g.retryAfter(),
	}
}

// writeError renders an apiError (or wraps any error as 500).
func writeError(w http.ResponseWriter, err error) *apiError {
	var ae *apiError
	if !errors.As(err, &ae) {
		ae = &apiError{status: http.StatusInternalServerError, code: ErrInternal, msg: err.Error()}
	}
	if ae.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ae.status)
	json.NewEncoder(w).Encode(ErrorResponse{Code: ae.code, Error: ae.msg}) //nolint:errcheck
	return ae
}

// resolved is a request after name resolution and validation, before
// compilation.
type resolved struct {
	canonical  string
	hash       string
	kernelName string
	kernel     engine.Kernel
	params     []int64
	nodes      int
	threads    int
	// cs is the compiled-spec entry, when the text index named one still
	// cached; otherwise sp is the spec a spec-cache miss compiles, parsed
	// for this request and read-only once compiled.
	cs *compiledSpec
	sp *spec.Spec
	// parseErr is a spec-text parse/validate failure: the request is a
	// compile error attributable to (and negatively cached under) the
	// raw spec text.
	parseErr error
	key      string // resultKey's, once built
}

// textEntry is one text-index entry: the canonical hash an exact spec
// text or builtin name resolved to, and the builtin problem.
type textEntry struct {
	hash string
	p    *problems.Problem
}

// resolveSpec is the spec half of resolving a request, shared by
// /v1/query and /v1/compile: it names the spec — a builtin problem p, or
// spec text parsed into r.sp — and canonicalises and hashes it.
// Unparseable text is not an error here: it comes back as parseErr,
// hashed by its raw text for the negative cache, with r.sp nil.
//
// The text index answers text it has resolved before whose compiled
// entry is still cached: r.cs is that entry and r.sp its spec, parsed at
// compile and read-only since, so the request is neither parsed nor
// hashed.
func (s *Server) resolveSpec(req *QueryRequest) (r *resolved, p *problems.Problem, ae *apiError) {
	if (req.Problem == "") == (req.Spec == "") {
		return nil, nil, badRequest("serve: exactly one of problem and spec must be set")
	}
	r = &resolved{}
	key := "p:" + req.Problem
	if req.Problem == "" {
		// The exact text, by its digest: an index entry must not hold a
		// body of up to maxBodyBytes.
		sum := sha256.Sum256([]byte(req.Spec))
		key = "s:" + string(sum[:])
	}
	if v, ok := s.texts.get(key); ok {
		te := v.(textEntry)
		if cv, ok := s.specCache.get(te.hash); ok {
			cs := cv.(*compiledSpec)
			r.cs, r.sp, r.hash, r.canonical = cs, cs.sp, cs.hash, cs.canonical
			if cs.sp == nil {
				r.parseErr = cs.err
			}
			return r, te.p, nil
		}
	}
	if s.testParsed != nil {
		s.testParsed()
	}
	if req.Problem != "" {
		var err error
		if p, err = problems.Get(req.Problem); err != nil {
			return nil, nil, badRequest("%v", err)
		}
		r.sp = p.Spec
	} else if r.sp, r.parseErr = spec.Parse(req.Spec); r.parseErr != nil {
		// Unparseable text cannot be canonicalized; negative-cache it
		// under the hash of the raw text so repeats stay out of the
		// compile queue.
		r.hash = SpecHash("raw:" + req.Spec)
	}
	if r.sp != nil {
		r.canonical = Canonicalize(r.sp)
		r.hash = SpecHash(r.canonical)
	}
	s.texts.add(key, textEntry{r.hash, p}, 0)
	return r, p, nil
}

// resolve validates a QueryRequest into a resolved query: the spec half,
// then the run's shape, kernel and parameters.
func (s *Server) resolve(req *QueryRequest) (*resolved, *apiError) {
	r, p, ae := s.resolveSpec(req)
	if ae != nil {
		return nil, ae
	}
	sp := r.sp
	r.params, r.nodes, r.threads = append([]int64(nil), req.Params...), req.Nodes, req.Threads
	if r.nodes == 0 {
		r.nodes = 1
	}
	if r.threads == 0 {
		r.threads = 1
	}
	if r.nodes < 1 || r.nodes > s.opts.MaxNodes {
		return nil, badRequest("serve: nodes %d out of range [1, %d]", r.nodes, s.opts.MaxNodes)
	}
	if r.threads < 1 || r.threads > s.opts.MaxThreads {
		return nil, badRequest("serve: threads %d out of range [1, %d]", r.threads, s.opts.MaxThreads)
	}
	var what string
	if p != nil {
		if req.Kernel != "" {
			return nil, badRequest("serve: kernel applies only to spec requests (builtin problems carry their own)")
		}
		r.kernelName, r.kernel = "builtin:"+req.Problem, p.Kernel
		if len(r.params) == 0 {
			r.params = append([]int64(nil), p.DefaultParams...)
		}
		what = "problem " + req.Problem
	} else {
		kname := req.Kernel
		if kname == "" {
			kname = DefaultKernel
		}
		kernel, err := lookupKernel(kname)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		r.kernelName, r.kernel = kname, kernel
		if r.parseErr != nil {
			return r, nil
		}
		what = "spec " + sp.Name
	}
	if len(r.params) != len(sp.Params) {
		return nil, badRequest("serve: %s wants %d params, got %d", what, len(sp.Params), len(r.params))
	}
	// Out-of-bounds template parameters would step outside the ghost
	// shells and tile crossings the compiled program was sized for.
	if err := sp.CheckParams(r.params); err != nil {
		return nil, badRequest("%v", err)
	}
	if p != nil && p.FixedParams {
		// The kernel closes over inputs sized by the defaults; other
		// values would index out of the baked-in data.
		for i, v := range r.params {
			if v != p.DefaultParams[i] {
				return nil, badRequest("serve: problem %s has fixed params %v (its inputs are baked into the kernel)", req.Problem, p.DefaultParams)
			}
		}
	}
	return r, nil
}

// getCompiled returns the compiled-spec cache entry for r, compiling
// (under the compile gate, coalesced per hash) on a miss. Negative
// entries count as hits. The returned entry's err field carries a
// negatively cached compile failure.
func (s *Server) getCompiled(ctx context.Context, r *resolved) (cs *compiledSpec, cached bool, err error) {
	if r.cs != nil {
		return r.cs, true, nil
	}
	if v, ok := s.specCache.get(r.hash); ok {
		return v.(*compiledSpec), true, nil
	}
	v, err, shared := s.flights.do(ctx, "c:"+r.hash, func() (any, error) {
		if v, ok := s.specCache.get(r.hash); ok {
			return v, nil
		}
		if err := s.compileGate.enter(ctx); err != nil {
			if errors.Is(err, errShed) {
				return nil, shedError(s.compileGate)
			}
			return nil, err
		}
		t0 := time.Now()
		defer s.compileGate.leave(t0)
		cs := &compiledSpec{hash: r.hash, canonical: r.canonical, prepared: newLRU(preparedPerSpec, 0)}
		if r.parseErr != nil {
			cs.err = r.parseErr
		} else {
			cs.sp = r.sp
			cs.tl, cs.err = tiling.New(r.sp)
		}
		cs.compileMs = float64(time.Since(t0).Nanoseconds()) / 1e6
		s.met.compileHist.ObserveNs(time.Since(t0).Nanoseconds())
		s.met.compiles.Add(1)
		if cs.err != nil {
			s.met.compileErrors.Add(1)
		}
		s.specCache.add(r.hash, cs, int64(len(r.canonical))+1024)
		return cs, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*compiledSpec), shared, nil
}

// getPrepared returns the prepared run front for (cs, params, nodes),
// building and caching it on first use (coalesced per key). Prepare
// waits on no gate, so a flight here never ends in a caller's context
// error and needs no caller context.
func (s *Server) getPrepared(cs *compiledSpec, params []int64, nodes int) (*engine.Prepared, error) {
	key := fmt.Sprintf("%d|%v", nodes, params)
	if prep, ok := cs.prepared.get(key); ok {
		return prep.(*engine.Prepared), nil
	}
	v, err, _ := s.flights.do(context.TODO(), "p:"+cs.hash+"|"+key, func() (any, error) {
		if prep, ok := cs.prepared.get(key); ok {
			return prep, nil
		}
		prep, err := engine.Prepare(cs.tl, params, nodes, balance.Prefix)
		if err != nil {
			return nil, err
		}
		cs.prepared.add(key, prep, 0)
		return prep, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*engine.Prepared), nil
}

// resultKey is the result-memo and coalescing key. Node and thread
// counts are deliberately absent: the engine guarantees
// bit-identical cell values across them, so configurations share
// results.
func (r *resolved) resultKey() string {
	if r.key == "" {
		r.key = "r:" + r.hash + "|" + r.kernelName + "|" + fmt.Sprint(r.params)
	}
	return r.key
}

// outcome is what a query computation produces for response assembly.
type outcome struct {
	res           memoResult
	compileCached bool
	compileMs     float64
	runMs         float64
	trace         json.RawMessage
}

// compute runs the full pipeline for one resolved query: compile (or
// spec-cache hit), prepare, admission, engine run, memoization.
func (s *Server) compute(ctx context.Context, r *resolved, tenant string, memoize, withTrace bool) (*outcome, error) {
	cs, compCached, err := s.getCompiled(ctx, r)
	if err != nil {
		return nil, err
	}
	if cs.err != nil {
		return nil, &apiError{status: http.StatusBadRequest, code: ErrCompile,
			msg: fmt.Sprintf("serve: spec %s failed to compile: %v", cs.hash, cs.err)}
	}
	prep, err := s.getPrepared(cs, r.params, r.nodes)
	if err != nil {
		return nil, err
	}

	tg := s.tenants.get(tenant)
	if err := tg.enter(ctx); err != nil {
		if errors.Is(err, errShed) {
			return nil, shedError(tg)
		}
		return nil, err
	}
	tStart := time.Now()
	defer tg.leave(tStart)
	if err := s.runGate.enter(ctx); err != nil {
		if errors.Is(err, errShed) {
			return nil, shedError(s.runGate)
		}
		return nil, err
	}
	t0 := time.Now()
	defer s.runGate.leave(t0)

	if s.testRunStarted != nil {
		s.testRunStarted()
	}
	cfg := engine.Config{Nodes: r.nodes, Threads: r.threads}
	var tracer *obs.Tracer
	if withTrace {
		tracer = obs.NewTracer()
		cfg.Tracer = tracer
	}
	res, err := prep.Run(r.kernel, cfg)
	runNs := time.Since(t0).Nanoseconds()
	s.met.runHist.ObserveNs(runNs)
	s.met.runs.Add(1)
	if err != nil {
		return nil, fmt.Errorf("serve: engine run failed: %w", err)
	}
	var cells int64
	for i := range res.Stats {
		cells += res.Stats[i].CellsComputed
	}
	out := &outcome{
		res:           memoResult{value: res.Value, max: res.Max, cells: cells},
		compileCached: compCached,
		compileMs:     cs.compileMs,
		runMs:         float64(runNs) / 1e6,
	}
	if compCached {
		out.compileMs = 0
	}
	if tracer != nil {
		var b strings.Builder
		if err := tracer.Snapshot().WriteChrome(&b); err == nil {
			out.trace = json.RawMessage(b.String())
		}
	}
	if memoize {
		s.resultCache.add(r.resultKey(), out.res, memoResultCost+int64(len(r.resultKey())))
	}
	return out, nil
}

// handleQuery serves POST /v1/query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { s.met.requestHist.ObserveNs(time.Since(t0).Nanoseconds()) }()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req QueryRequest
	if ae := s.decode(w, r, &req); ae != nil {
		s.count("default", ae)
		writeError(w, ae)
		return
	}
	tenant := s.tenantOf(r, &req)
	if s.draining.Load() {
		ae := &apiError{status: http.StatusServiceUnavailable, code: ErrShutdown, msg: "serve: draining"}
		s.count(tenant, ae)
		writeError(w, ae)
		return
	}
	rq, ae := s.resolve(&req)
	if ae != nil {
		s.count(tenant, ae)
		writeError(w, ae)
		return
	}

	resp := QueryResponse{SpecHash: rq.hash, Kernel: rq.kernelName}
	useMemo := !req.NoResultCache && !req.Trace
	if useMemo && rq.parseErr == nil {
		if v, ok := s.resultCache.get(rq.resultKey()); ok {
			s.met.tenant(tenant).resultHit.Add(1)
			s.finishQuery(w, tenant, &resp, v.(memoResult), true)
			return
		}
	}

	var out *outcome
	var err error
	if req.Trace {
		out, err = s.compute(r.Context(), rq, tenant, false, true)
	} else {
		var v any
		var shared bool
		v, err, shared = s.flights.do(r.Context(), rq.resultKey(), func() (any, error) {
			return s.compute(r.Context(), rq, tenant, useMemo, false)
		})
		if err == nil {
			out = v.(*outcome)
			resp.Coalesced = shared
			if shared {
				s.met.tenant(tenant).coalesced.Add(1)
				s.met.coalesced.Add(1)
			}
		}
	}
	if err != nil {
		ae := writeError(w, err)
		s.count(tenant, ae)
		return
	}
	resp.CompileCached = out.compileCached
	resp.CompileMs = out.compileMs
	resp.RunMs = out.runMs
	resp.Trace = out.trace
	s.finishQuery(w, tenant, &resp, out.res, false)
}

// finishQuery fills the result fields and writes the 200 response.
func (s *Server) finishQuery(w http.ResponseWriter, tenant string, resp *QueryResponse, res memoResult, cached bool) {
	resp.Value = res.value
	resp.Cells = res.cells
	resp.Cached = cached
	if cached {
		resp.CompileCached = true
	}
	if res.max == res.max { // not NaN
		m := res.max
		resp.Max = &m
	}
	s.met.tenant(tenant).ok.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}

// handleCompile serves POST /v1/compile: compile (or confirm cached)
// without running — cache warming for latency-sensitive tenants.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req QueryRequest
	if ae := s.decode(w, r, &req); ae != nil {
		s.count("default", ae)
		writeError(w, ae)
		return
	}
	tenant := s.tenantOf(r, &req)
	if s.draining.Load() {
		ae := &apiError{status: http.StatusServiceUnavailable, code: ErrShutdown, msg: "serve: draining"}
		s.count(tenant, ae)
		writeError(w, ae)
		return
	}
	// /v1/compile takes no parameters: the spec half is the whole request.
	rq, _, ae := s.resolveSpec(&req)
	if ae != nil {
		s.count(tenant, ae)
		writeError(w, ae)
		return
	}
	cs, cached, err := s.getCompiled(r.Context(), rq)
	if err != nil {
		ae := writeError(w, err)
		s.count(tenant, ae)
		return
	}
	if cs.err != nil {
		ae := &apiError{status: http.StatusBadRequest, code: ErrCompile,
			msg: fmt.Sprintf("serve: spec %s failed to compile: %v", cs.hash, cs.err)}
		s.count(tenant, ae)
		writeError(w, ae)
		return
	}
	s.met.tenant(tenant).ok.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(CompileResponse{ //nolint:errcheck
		SpecHash:      cs.hash,
		CompileCached: cached,
		CompileMs:     cs.compileMs,
		Canonical:     cs.canonical,
	})
}

// handleCatalog serves GET /v1/catalog: builtin problems and generic
// kernels.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
		"problems": problems.Names(),
		"kernels":  GenericKernels(),
	})
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Uptime:     time.Since(s.start).Seconds(),
		Requests:   map[string]int64{},
		QueueDepth: map[string]int64{},
		Inflight:   map[string]int64{},
	}
	s.met.mu.RLock()
	for _, ts := range s.met.tenants {
		resp.Requests["ok"] += ts.ok.Load()
		resp.Requests["bad_request"] += ts.badReq.Load()
		resp.Requests["shed"] += ts.shed.Load()
		resp.Requests["error"] += ts.failed.Load()
	}
	s.met.mu.RUnlock()
	fill := func(cs *CacheStats, c *lruCache) {
		cs.Entries, cs.Bytes, cs.Hits, cs.Misses, cs.Evictions = c.stats()
	}
	fill(&resp.SpecCache, s.specCache)
	fill(&resp.ResultCache, s.resultCache)
	resp.Coalesced = s.met.coalesced.Load()
	resp.Shed = s.met.shed.Load()
	resp.CompileErrors = s.met.compileErrors.Load()
	resp.Compiles = s.met.compiles.Load()
	resp.Runs = s.met.runs.Load()
	for name, g := range map[string]*gate{"compile": s.compileGate, "run": s.runGate} {
		q, in := g.depth()
		resp.QueueDepth[name] = q
		resp.Inflight[name] = in
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}

// decode reads a JSON request body under the body-size cap: a body over
// the cap is 413, any other read failure (a client gone mid-body) 400.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into *QueryRequest) *apiError {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if !errors.As(err, &tooBig) {
			return badRequest("serve: reading request body: %v", err)
		}
		return &apiError{status: http.StatusRequestEntityTooLarge, code: ErrBadRequest,
			msg: fmt.Sprintf("serve: request body over %d bytes", maxBodyBytes)}
	}
	if err := json.Unmarshal(data, into); err != nil {
		return badRequest("serve: bad JSON: %v", err)
	}
	return nil
}

// tenantOf resolves the request's tenant: X-DP-Tenant header, then the
// body field, then "default".
func (s *Server) tenantOf(r *http.Request, req *QueryRequest) string {
	if t := r.Header.Get("X-DP-Tenant"); t != "" {
		return t
	}
	if req.Tenant != "" {
		return req.Tenant
	}
	return "default"
}

// count books a failed request into the tenant's counters.
func (s *Server) count(tenant string, ae *apiError) {
	ts := s.met.tenant(tenant)
	switch {
	case ae.status == http.StatusTooManyRequests:
		ts.shed.Add(1)
		s.met.shed.Add(1)
	case ae.status >= 500:
		ts.failed.Add(1)
	default:
		ts.badReq.Add(1)
	}
}
