package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"dpgen/internal/problems"
)

// testServer wires a Server to an httptest endpoint.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.MaxThreads == 0 {
		opts.MaxThreads = 8 // independent of the host's GOMAXPROCS
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends req to path and decodes the response into out (when the
// status is 2xx) or returns the raw body.
func post(t *testing.T, url, path string, req QueryRequest, out any) (status int, body []byte, hdr http.Header) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s response: %v\n%s", path, err, body)
		}
	}
	return resp.StatusCode, body, resp.Header
}

func query(t *testing.T, url string, req QueryRequest) QueryResponse {
	t.Helper()
	var qr QueryResponse
	status, body, _ := post(t, url, "/v1/query", req, &qr)
	if status != http.StatusOK {
		t.Fatalf("query: status %d\n%s", status, body)
	}
	return qr
}

// Served builtin answers must match the independent serial references,
// across node/thread configurations.
func TestQueryBuiltinMatchesSerial(t *testing.T) {
	_, ts := testServer(t, Options{})
	for _, name := range []string{"editdist", "bandit2", "localalign"} {
		p, err := problems.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		want := p.Serial(p.DefaultParams)
		for _, cfg := range []struct{ nodes, threads int }{{1, 1}, {2, 2}} {
			qr := query(t, ts.URL, QueryRequest{Problem: name, Nodes: cfg.nodes, Threads: cfg.threads})
			got := qr.Value
			if p.UseMax {
				if qr.Max == nil {
					t.Fatalf("%s: no max in response", name)
				}
				got = *qr.Max
			}
			if got != want {
				t.Errorf("%s n=%d t=%d: got %v, want %v", name, cfg.nodes, cfg.threads, got, want)
			}
		}
	}
}

// Spec-text queries with extended templates (variable-distance offsets
// and range dependences) compile and run end to end, bit-identically
// across node/thread configurations, and within-bounds parameter
// values are accepted.
func TestQueryExtendedSpecText(t *testing.T) {
	_, ts := testServer(t, Options{})
	for _, kernel := range []string{"", "sum", "longest"} {
		base := query(t, ts.URL, QueryRequest{Spec: vardistSpecA, Kernel: kernel, Params: []int64{8, 2}})
		for _, cfg := range []struct{ nodes, threads int }{{2, 2}, {1, 4}} {
			qr := query(t, ts.URL, QueryRequest{Spec: vardistSpecA, Kernel: kernel,
				Params: []int64{8, 2}, Nodes: cfg.nodes, Threads: cfg.threads, NoResultCache: true})
			if qr.Value != base.Value {
				t.Errorf("kernel %q n=%d t=%d: value %v, want %v", kernel, cfg.nodes, cfg.threads, qr.Value, base.Value)
			}
		}
	}
}

// A repeated identical query is a result-memo hit: no second compile,
// no second run, identical answer. The memo key excludes nodes/threads
// (engine results are bit-identical across configurations), so a
// different configuration of the same query also hits.
func TestResultMemoHit(t *testing.T) {
	s, ts := testServer(t, Options{})
	q1 := query(t, ts.URL, QueryRequest{Problem: "editdist", Nodes: 2, Threads: 2})
	if q1.Cached {
		t.Fatal("first query reported cached")
	}
	q2 := query(t, ts.URL, QueryRequest{Problem: "editdist", Nodes: 2, Threads: 2})
	if !q2.Cached {
		t.Fatal("second identical query missed the result memo")
	}
	q3 := query(t, ts.URL, QueryRequest{Problem: "editdist", Nodes: 1, Threads: 4})
	if !q3.Cached {
		t.Fatal("same query at a different node/thread config missed the memo")
	}
	if q2.Value != q1.Value || q3.Value != q1.Value {
		t.Fatalf("cached values diverge: %v %v %v", q1.Value, q2.Value, q3.Value)
	}
	if got := s.met.runs.Load(); got != 1 {
		t.Fatalf("runs = %d, want 1", got)
	}
	if got := s.met.compiles.Load(); got != 1 {
		t.Fatalf("compiles = %d, want 1", got)
	}
}

// Two concurrent identical spec-text queries compile once and run
// once: the second coalesces onto the first's in-flight execution.
func TestConcurrentIdenticalQueriesCoalesce(t *testing.T) {
	s, ts := testServer(t, Options{})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testRunStarted = func() {
		once.Do(func() { close(started) })
		<-release
	}

	req := QueryRequest{Spec: triSpecA, Params: []int64{40}, NoResultCache: true}
	results := make(chan QueryResponse, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- query(t, ts.URL, req)
		}()
		if i == 0 {
			<-started // leader is inside its run slot
		}
	}
	// Give the follower time to reach the coalescing point, then let
	// the leader finish. (If the follower were somehow late, it would
	// run separately and the runs==1 assertion below would catch it.)
	time.Sleep(200 * time.Millisecond)
	close(release)
	wg.Wait()
	close(results)

	var coalesced int
	var vals []float64
	for r := range results {
		if r.Coalesced {
			coalesced++
		}
		vals = append(vals, r.Value)
	}
	if got := s.met.compiles.Load(); got != 1 {
		t.Errorf("compiles = %d, want 1", got)
	}
	if got := s.met.runs.Load(); got != 1 {
		t.Errorf("runs = %d, want 1 (second query should coalesce)", got)
	}
	if coalesced != 1 {
		t.Errorf("coalesced responses = %d, want exactly 1", coalesced)
	}
	if len(vals) == 2 && vals[0] != vals[1] {
		t.Errorf("coalesced values diverge: %v vs %v", vals[0], vals[1])
	}
}

// A spec that fails to compile is negatively cached: the second
// submission is rejected from cache without a second compile, and the
// server keeps answering good queries.
func TestNegativeCompileCache(t *testing.T) {
	s, ts := testServer(t, Options{})
	bad := []QueryRequest{
		// Unbounded space: parses, fails polyhedral analysis.
		{Spec: "name unbounded\nparams N\nvars i\nconstraint i >= 0\ndep d -1\n", Params: []int64{5}},
		// Unparseable text.
		{Spec: "this is not a spec"},
	}
	for _, req := range bad {
		for round := 0; round < 2; round++ {
			status, body, _ := post(t, ts.URL, "/v1/query", req, nil)
			if status != http.StatusBadRequest {
				t.Fatalf("bad spec round %d: status %d\n%s", round, status, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Code != ErrCompile {
				t.Fatalf("bad spec round %d: code %q (err %v), want %q", round, er.Code, err, ErrCompile)
			}
		}
	}
	if got := s.met.compiles.Load(); got != 2 {
		t.Errorf("compiles = %d, want 2 (one per distinct bad spec, repeats cached)", got)
	}
	if got := s.met.compileErrors.Load(); got != 2 {
		t.Errorf("compileErrors = %d, want 2", got)
	}
	// The queue is not poisoned: a good query still works.
	qr := query(t, ts.URL, QueryRequest{Problem: "lcs2"})
	if math.IsNaN(qr.Value) {
		t.Fatal("good query after bad specs returned NaN")
	}
}

// Equivalent spec texts share one compiled program: the second text
// spelling reports the same specHash and a compile cache hit.
func TestEquivalentSpecsShareCompiledProgram(t *testing.T) {
	s, ts := testServer(t, Options{})
	q1 := query(t, ts.URL, QueryRequest{Spec: triSpecA, Params: []int64{30}})
	q2 := query(t, ts.URL, QueryRequest{Spec: triSpecB, Params: []int64{30}})
	if q1.SpecHash != q2.SpecHash {
		t.Fatalf("spec hashes differ: %s vs %s", q1.SpecHash, q2.SpecHash)
	}
	if !q2.Cached && !q2.CompileCached {
		t.Error("second spelling did not reuse the compiled program")
	}
	if got := s.met.compiles.Load(); got != 1 {
		t.Errorf("compiles = %d, want 1", got)
	}
	if q1.Value != q2.Value {
		t.Errorf("values differ: %v vs %v", q1.Value, q2.Value)
	}
}

// Under overload the server sheds with 429 and a Retry-After estimate
// instead of queueing without bound.
func TestOverloadSheds429WithRetryAfter(t *testing.T) {
	s, ts := testServer(t, Options{
		MaxConcurrentRuns: 1,
		MaxRunQueue:       -1, // no run queue: second run sheds immediately
		TenantConcurrency: 4,
		TenantQueue:       4,
	})
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s.testRunStarted = func() {
		once.Do(func() { close(started) })
		<-release
	}

	done := make(chan QueryResponse, 1)
	go func() { done <- query(t, ts.URL, QueryRequest{Spec: triSpecA, Params: []int64{40}}) }()
	<-started

	// Distinct params: no coalescing, needs its own run slot.
	status, body, hdr := post(t, ts.URL, "/v1/query", QueryRequest{Spec: triSpecA, Params: []int64{41}}, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("overloaded query: status %d, want 429\n%s", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Code != ErrOverloaded {
		t.Fatalf("overloaded query: code %q (err %v), want %q", er.Code, err, ErrOverloaded)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", hdr.Get("Retry-After"))
	}
	close(release)
	<-done
	if got := s.met.shed.Load(); got < 1 {
		t.Errorf("shed counter = %d, want >= 1", got)
	}
}

// A draining server refuses new queries with 503 but keeps /metrics
// and /v1/stats up.
func TestDrainRefusesWith503(t *testing.T) {
	s, ts := testServer(t, Options{})
	query(t, ts.URL, QueryRequest{Problem: "lcs2"})
	s.Drain()
	status, body, _ := post(t, ts.URL, "/v1/query", QueryRequest{Problem: "lcs2"}, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503\n%s", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Code != ErrShutdown {
		t.Fatalf("code %q (err %v), want %q", er.Code, err, ErrShutdown)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics while draining: %v status %v", err, resp.StatusCode)
	}
	resp.Body.Close()
}

// Bad requests are 400 with stable codes.
func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, Options{MaxNodes: 2})
	for _, tc := range []struct {
		name string
		req  QueryRequest
	}{
		{"neither problem nor spec", QueryRequest{}},
		{"both problem and spec", QueryRequest{Problem: "lcs2", Spec: triSpecA}},
		{"unknown problem", QueryRequest{Problem: "nope"}},
		{"unknown kernel", QueryRequest{Spec: triSpecA, Kernel: "nope", Params: []int64{4}}},
		{"kernel with builtin", QueryRequest{Problem: "lcs2", Kernel: "mix"}},
		{"wrong param count", QueryRequest{Problem: "lcs2", Params: []int64{1, 2, 3, 4, 5}}},
		{"non-default params on a fixed-params problem", QueryRequest{Problem: "editdist", Params: []int64{10, 10}}},
		{"nodes over cap", QueryRequest{Problem: "lcs2", Nodes: 3}},
		{"builtin param over declared bound", QueryRequest{Problem: "mcm", Params: []int64{1000}}},
		{"builtin param under declared bound", QueryRequest{Problem: "knap", Params: []int64{10, 30, 0}}},
		{"spec template param out of bounds", QueryRequest{Spec: vardistSpecA, Params: []int64{8, 9}}},
	} {
		status, body, _ := post(t, ts.URL, "/v1/query", tc.req, nil)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400\n%s", tc.name, status, body)
		}
	}
}

// An old client still sending the retired "sched" field is served: the
// decoder ignores unknown fields, and the answer is the serial
// reference's, bit for bit.
func TestRetiredSchedFieldIgnored(t *testing.T) {
	_, ts := testServer(t, Options{})
	p, err := problems.Get("bandit2")
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []string{"hybrid", "dynamic", "static"} {
		body := `{"problem":"bandit2","threads":2,"noResultCache":true,"sched":"` + sched + `"}`
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var qr QueryResponse
		err = json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("sched %q: status %d, decode %v", sched, resp.StatusCode, err)
		}
		if want := p.Serial(p.DefaultParams); qr.Value != want {
			t.Errorf("sched %q: value %v, serial reference %v", sched, qr.Value, want)
		}
	}
}

// /v1/compile warms the cache; the follow-up query reports
// compileCached without having run anything yet.
func TestCompileWarmsCache(t *testing.T) {
	s, ts := testServer(t, Options{})
	var cr CompileResponse
	status, body, _ := post(t, ts.URL, "/v1/compile", QueryRequest{Spec: triSpecA}, &cr)
	if status != http.StatusOK {
		t.Fatalf("compile: status %d\n%s", status, body)
	}
	if cr.SpecHash == "" || cr.CompileCached {
		t.Fatalf("compile response: %+v", cr)
	}
	if !strings.Contains(cr.Canonical, "name tri") {
		t.Fatalf("canonical form missing name: %q", cr.Canonical)
	}
	if got := s.met.runs.Load(); got != 0 {
		t.Fatalf("compile triggered %d runs", got)
	}
	qr := query(t, ts.URL, QueryRequest{Spec: triSpecA, Params: []int64{25}})
	if !qr.CompileCached {
		t.Error("query after compile warming missed the spec cache")
	}
	if qr.SpecHash != cr.SpecHash {
		t.Errorf("hash mismatch: query %s vs compile %s", qr.SpecHash, cr.SpecHash)
	}
}

// Trace requests return Chrome trace-event JSON and bypass the memo.
func TestTraceCapture(t *testing.T) {
	_, ts := testServer(t, Options{})
	query(t, ts.URL, QueryRequest{Problem: "lcs2"}) // populate memo
	qr := query(t, ts.URL, QueryRequest{Problem: "lcs2", Trace: true})
	if qr.Cached {
		t.Fatal("trace request served from memo (needs a run of its own)")
	}
	if len(qr.Trace) == 0 || !json.Valid(qr.Trace) {
		t.Fatalf("trace missing or invalid JSON (%d bytes)", len(qr.Trace))
	}
}

// /v1/stats and /metrics expose the serving counters.
func TestStatsAndMetrics(t *testing.T) {
	_, ts := testServer(t, Options{})
	query(t, ts.URL, QueryRequest{Problem: "lcs2", Tenant: "team-a"})
	query(t, ts.URL, QueryRequest{Problem: "lcs2", Tenant: "team-a"})

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests["ok"] != 2 || st.Compiles != 1 || st.Runs != 1 || st.ResultCache.Hits != 1 {
		t.Fatalf("stats: %+v", st)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		`dp_serve_requests_total{tenant="team-a",code="ok"} 2`,
		`dp_serve_result_cache_hits_total{tenant="team-a"} 1`,
		"dp_serve_spec_cache_entries 1",
		"dp_serve_compile_seconds_bucket",
		"dp_serve_run_seconds_count 1",
		"dp_serve_request_seconds_count",
		`dp_serve_queue_depth{queue="run"}`,
		"dp_serve_analysis_simplex_solves_total ",
		"dp_serve_analysis_simplex_pivots_total ",
		"dp_serve_analysis_simplex_bigrat_fallbacks_total 0",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
}

// The tenant header overrides the body field.
func TestTenantHeaderPrecedence(t *testing.T) {
	s, ts := testServer(t, Options{})
	data, _ := json.Marshal(QueryRequest{Problem: "lcs2", Tenant: "body-tenant"})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(data))
	req.Header.Set("X-DP-Tenant", "header-tenant")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := s.met.tenant("header-tenant").ok.Load(); got != 1 {
		t.Fatalf("header-tenant ok = %d, want 1", got)
	}
	if got := s.met.tenant("body-tenant").ok.Load(); got != 0 {
		t.Fatalf("body-tenant ok = %d, want 0", got)
	}
}

// Result-memo eviction under a tight byte bound: distinct queries
// evict, the server stays correct, stats report the evictions. The
// server's memo is swapped for a two-entry budget before any query.
func TestResultMemoEvictionUnderByteBound(t *testing.T) {
	s, ts := testServer(t, Options{})
	s.resultCache = newLRU(resultCacheEntries, 2*memoResultCost)
	for n := int64(20); n < 28; n++ {
		query(t, ts.URL, QueryRequest{Spec: triSpecA, Params: []int64{n}})
	}
	_, bytes, _, _, evictions := s.resultCache.stats()
	if evictions == 0 {
		t.Fatal("no evictions under a 2-entry byte budget and 8 distinct queries")
	}
	if bytes > 2*memoResultCost+64 {
		t.Fatalf("result cache bytes %d over bound", bytes)
	}
	// The most recent query is still memoized; an old one re-runs but
	// still answers identically.
	recent := query(t, ts.URL, QueryRequest{Spec: triSpecA, Params: []int64{27}})
	if !recent.Cached {
		t.Error("most recent result evicted unexpectedly")
	}
	old1 := query(t, ts.URL, QueryRequest{Spec: triSpecA, Params: []int64{20}})
	if old1.Cached {
		t.Error("oldest result survived a 2-entry budget")
	}
}

// TestParameterChurnIsBounded: one tenant posting thousands of distinct
// sizes against one spec cannot grow the server — the compiled spec
// keeps a bounded number of prepared run fronts (and the analysis keeps
// no per-instance memo at all: slab counts live on the Prepared) — while
// a size it has seen recently is still served from the front it built.
func TestParameterChurnIsBounded(t *testing.T) {
	s := New(Options{})
	req := QueryRequest{Spec: "name tri\nparams N\nvars i j\nconstraint i >= 0\nconstraint j >= 0\nconstraint i + j <= N\n" +
		"dep down <1, 0>\ndep right <0, 1>\nbalance i\ntile 16 16\ngoal 0 0\n", Kernel: "longest", Params: []int64{1}}
	r, apiErr := s.resolve(&req)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	cs, _, err := s.getCompiled(context.Background(), r)
	if err != nil || cs.err != nil {
		t.Fatal(err, cs.err)
	}
	const sizes = 5000
	instance := func(i int) ([]int64, int) { return []int64{int64(1 + i%625)}, 1 + i/625 } // distinct (size, nodes) pairs
	for i := 0; i < sizes; i++ {
		params, nodes := instance(i)
		if _, err := s.getPrepared(cs, params, nodes); err != nil {
			t.Fatal(err)
		}
	}
	entries, _, hits, _, evictions := cs.prepared.stats()
	if entries > preparedPerSpec || evictions != sizes-preparedPerSpec {
		t.Errorf("%d prepared fronts held after %d sizes (%d evictions), bound is %d", entries, sizes, evictions, preparedPerSpec)
	}
	params, nodes := instance(sizes - 1)
	first, err := s.getPrepared(cs, params, nodes)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := s.getPrepared(cs, params, nodes)
	_, _, hitsAfter, _, _ := cs.prepared.stats()
	if first != again || hitsAfter != hits+2 {
		t.Errorf("a repeated size was rebuilt: %p vs %p, hits %d -> %d", first, again, hits, hitsAfter)
	}
}

// reply is what sendQuery's goroutine got back.
type reply struct {
	status int
	body   []byte
	err    error
}

// sendQuery posts a query under ctx from a goroutine of its own, which
// must not stop the test, so failures come back in the reply.
func sendQuery(ctx context.Context, url string, req QueryRequest) <-chan reply {
	out := make(chan reply, 1)
	go func() {
		var r reply
		defer func() { out <- r }()
		data, err := json.Marshal(req)
		if err != nil {
			r.err = err
			return
		}
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/query", bytes.NewReader(data))
		if err != nil {
			r.err = err
			return
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			r.err = err
			return
		}
		defer resp.Body.Close()
		r.status = resp.StatusCode
		r.body, r.err = io.ReadAll(resp.Body)
	}()
	return out
}

// A coalesced follower does not inherit its leader's cancellation: the
// leader's client goes away while the leader is queued for the run slot,
// and the follower, whose client is still connected, gets its answer.
func TestFollowerSurvivesLeaderCancel(t *testing.T) {
	s, ts := testServer(t, Options{MaxConcurrentRuns: 1, TenantConcurrency: 4})
	started := make(chan struct{})
	release := make(chan struct{})
	var once, freed sync.Once
	s.testRunStarted = func() {
		once.Do(func() { close(started) })
		<-release
	}
	// Runs before the server closes, which waits for every handler.
	free := func() { freed.Do(func() { close(release) }) }
	t.Cleanup(free)
	// The hooks run on server goroutines; each event is received once.
	queued, joined := make(chan struct{}, 4), make(chan struct{}, 4)
	s.runGate.testQueued = func() { queued <- struct{}{} }
	s.flights.testJoined = func() { joined <- struct{}{} }
	holder := sendQuery(context.Background(), ts.URL, QueryRequest{Spec: triSpecA, Params: []int64{40}})
	<-started // the holder has the one run slot

	req := QueryRequest{Spec: triSpecA, Params: []int64{41}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader := sendQuery(ctx, ts.URL, req)
	<-queued // the leader waits for the run slot
	follower := sendQuery(context.Background(), ts.URL, req)
	<-joined // the follower waits on the leader's flight

	cancel()
	if got := <-leader; got.err == nil {
		t.Fatalf("the cancelled leader got a response: status %d", got.status)
	}
	// The leader's flight ends in its context error; the follower runs
	// the flight again and queues for the slot itself.
	select {
	case <-queued:
	case got := <-follower:
		t.Fatalf("the follower replied while the slot was held: status %d (err %v)\n%s", got.status, got.err, got.body)
	}
	free()
	for name, ch := range map[string]<-chan reply{"holder": holder, "follower": follower} {
		if got := <-ch; got.err != nil || got.status != http.StatusOK {
			t.Errorf("%s: status %d (err %v), want 200\n%s", name, got.status, got.err, got.body)
		}
	}
}

// Shutdown after Drain waits for the run in flight, not for a fixed
// grace period: a query arriving after Drain gets 503, the held run
// answers 200, and Shutdown returns once it has.
func TestShutdownWaitsForInFlightRun(t *testing.T) {
	s := New(Options{MaxThreads: 8})
	h, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	started, release := make(chan struct{}), make(chan struct{})
	var once, freed sync.Once
	s.testRunStarted = func() {
		once.Do(func() { close(started) })
		<-release
	}
	free := func() { freed.Do(func() { close(release) }) }
	t.Cleanup(free)
	url := "http://" + h.Addr()
	inFlight := sendQuery(context.Background(), url, QueryRequest{Spec: triSpecA, Params: []int64{40}})
	<-started // the query holds the run slot

	s.Drain()
	if status, body, _ := post(t, url, "/v1/query", QueryRequest{Spec: triSpecA, Params: []int64{41}}, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("query after Drain: status %d, want 503\n%s", status, body)
	}
	shut := make(chan error, 1)
	go func() { shut <- h.Shutdown(context.Background()) }()
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) while a run was in flight", err)
	case got := <-inFlight:
		t.Fatalf("the held run replied before its release: status %d (err %v)", got.status, got.err)
	default:
	}
	free()
	if got := <-inFlight; got.err != nil || got.status != http.StatusOK {
		t.Fatalf("in-flight run: status %d (err %v), want 200\n%s", got.status, got.err, got.body)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// A body that ends early is a bad request (400); only a body over the
// cap is 413.
func TestBodyReadErrors(t *testing.T) {
	h := New(Options{}).Handler()
	for _, tc := range []struct {
		name string
		body func() io.Reader
		want int
	}{
		{"truncated", func() io.Reader {
			return io.MultiReader(strings.NewReader(`{"spec": "na`), iotest.ErrReader(io.ErrUnexpectedEOF))
		}, http.StatusBadRequest},
		{"oversize", func() io.Reader {
			return strings.NewReader(`{"spec": "` + strings.Repeat("x", maxBodyBytes) + `"}`)
		}, http.StatusRequestEntityTooLarge},
	} {
		for _, path := range []string{"/v1/query", "/v1/compile"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, tc.body()))
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != tc.want || er.Code != ErrBadRequest {
				t.Errorf("%s %s: status %d code %q (err %v), want %d %q\n%s",
					tc.name, path, rec.Code, er.Code, err, tc.want, ErrBadRequest, rec.Body)
			}
		}
	}
}
