// Per-tenant serving metrics, written through obs.Expo and served at
// /metrics next to the run-level families the rest of the system
// already exports (dpgen/internal/obs). Counter reads are atomic;
// histograms reuse obs.Histogram, whose snapshots are safe to take
// mid-flight.

package serve

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"dpgen/internal/obs"
	"dpgen/internal/simplex"
)

// serveLatencyBounds are the request/compile/run latency buckets:
// 100µs to ~27s in x4 steps — compiles sit in the milliseconds, paper
// runs in the seconds.
var serveLatencyBounds = []float64{
	100e-6, 400e-6, 1.6e-3, 6.4e-3, 25.6e-3, 102.4e-3, 409.6e-3, 1.6384, 6.5536, 26.2144,
}

// tenantStats is one tenant's counter block.
type tenantStats struct {
	ok        atomic.Int64 // 2xx
	badReq    atomic.Int64 // 4xx other than shed
	shed      atomic.Int64 // 429
	failed    atomic.Int64 // 5xx
	coalesced atomic.Int64
	resultHit atomic.Int64
}

// metrics is the server-wide metrics registry.
type metrics struct {
	mu      sync.RWMutex
	tenants map[string]*tenantStats

	compiles      atomic.Int64
	compileErrors atomic.Int64
	runs          atomic.Int64
	coalesced     atomic.Int64
	shed          atomic.Int64

	compileHist *obs.Histogram
	runHist     *obs.Histogram
	requestHist *obs.Histogram
}

func newMetrics() *metrics {
	return &metrics{
		tenants:     map[string]*tenantStats{},
		compileHist: obs.NewHistogram(serveLatencyBounds...),
		runHist:     obs.NewHistogram(serveLatencyBounds...),
		requestHist: obs.NewHistogram(serveLatencyBounds...),
	}
}

// tenant returns (lazily creating) the counter block for one tenant.
func (m *metrics) tenant(name string) *tenantStats {
	m.mu.RLock()
	ts, ok := m.tenants[name]
	m.mu.RUnlock()
	if ok {
		return ts
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts, ok = m.tenants[name]; !ok {
		ts = &tenantStats{}
		m.tenants[name] = ts
	}
	return ts
}

// writePrometheus renders every serving family; s supplies the gauge
// sources (gates and caches).
func (m *metrics) writePrometheus(w io.Writer, s *Server) error {
	m.mu.RLock()
	names := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		names = append(names, name)
	}
	m.mu.RUnlock()
	sort.Strings(names)

	e := obs.Expo{W: w}
	requests := obs.Counter("dp_serve_requests_total", "Requests by tenant and outcome code class.")
	e.Family(requests)
	for _, name := range names {
		ts, tenant := m.tenant(name), obs.Label("tenant", name)
		e.Sample(requests.Name, tenant+","+obs.Label("code", "ok"), ts.ok.Load())
		e.Sample(requests.Name, tenant+","+obs.Label("code", "bad_request"), ts.badReq.Load())
		e.Sample(requests.Name, tenant+","+obs.Label("code", "shed"), ts.shed.Load())
		e.Sample(requests.Name, tenant+","+obs.Label("code", "error"), ts.failed.Load())
	}
	for _, f := range []struct {
		obs.Family
		v func(*tenantStats) int64
	}{
		{obs.Counter("dp_serve_coalesced_total", "Requests that shared another request's in-flight run."),
			func(ts *tenantStats) int64 { return ts.coalesced.Load() }},
		{obs.Counter("dp_serve_shed_total", "Requests shed with 429 by tenant."),
			func(ts *tenantStats) int64 { return ts.shed.Load() }},
		{obs.Counter("dp_serve_result_cache_hits_total", "Result-memo hits by tenant."),
			func(ts *tenantStats) int64 { return ts.resultHit.Load() }},
	} {
		e.Family(f.Family)
		for _, name := range names {
			e.Sample(f.Name, obs.Label("tenant", name), f.v(m.tenant(name)))
		}
	}

	for _, c := range []struct {
		name, help string
		cache      *lruCache
	}{
		{"dp_serve_spec_cache", "Compiled-spec cache", s.specCache},
		{"dp_serve_result_cache", "Result memo", s.resultCache},
	} {
		entries, bytes, hits, misses, evictions := c.cache.stats()
		events := obs.Counter(c.name+"_events_total", c.help+" hit/miss/eviction counters.")
		e.Family(events)
		e.Sample(events.Name, obs.Label("event", "hit"), hits)
		e.Sample(events.Name, obs.Label("event", "miss"), misses)
		e.Sample(events.Name, obs.Label("event", "eviction"), evictions)
		e.Family(obs.Gauge(c.name+"_entries", c.help+" current entries."))
		e.Sample(c.name+"_entries", "", entries)
		e.Family(obs.Gauge(c.name+"_bytes", c.help+" approximate bytes."))
		e.Sample(c.name+"_bytes", "", bytes)
	}

	// The LP counters say what the compiles asked of the exact solver,
	// process-wide: a tenant spec whose coefficients push it off the
	// small-rational arithmetic shows up as big.Rat fallbacks (and slow
	// compiles).
	lp := simplex.ReadStats()
	for _, c := range []struct {
		obs.Family
		v any
	}{
		{obs.Counter("dp_serve_compiles_total", "Spec compiles performed (cache misses)."), m.compiles.Load()},
		{obs.Counter("dp_serve_compile_errors_total", "Distinct specs that failed to compile (negatively cached)."), m.compileErrors.Load()},
		{obs.Counter("dp_serve_runs_total", "Engine runs performed (memo misses, after coalescing)."), m.runs.Load()},
		{obs.Counter("dp_serve_analysis_simplex_solves_total", "LP questions (feasibility, redundancy, optimum) the polyhedral analysis put to the simplex."), lp.Solves},
		{obs.Counter("dp_serve_analysis_simplex_pivots_total", "Small-rational simplex pivots."), lp.Pivots},
		{obs.Counter("dp_serve_analysis_simplex_bigrat_fallbacks_total", "LP questions whose arithmetic left int64 and were answered again on math/big rationals."), lp.BigFallbacks},
	} {
		e.Family(c.Family)
		e.Sample(c.Name, "", c.v)
	}

	compileQueued, compileInflight := s.compileGate.depth()
	runQueued, runInflight := s.runGate.depth()
	e.Family(obs.Gauge("dp_serve_queue_depth", "Current waiters per admission gate."))
	e.Sample("dp_serve_queue_depth", obs.Label("queue", "compile"), compileQueued)
	e.Sample("dp_serve_queue_depth", obs.Label("queue", "run"), runQueued)
	e.Family(obs.Gauge("dp_serve_inflight", "Current holders per admission gate."))
	e.Sample("dp_serve_inflight", obs.Label("queue", "compile"), compileInflight)
	e.Sample("dp_serve_inflight", obs.Label("queue", "run"), runInflight)

	e.Histogram(obs.Family{Name: "dp_serve_compile_seconds", Type: "histogram",
		Help: "Spec compile latency (cache misses only)."}, "", m.compileHist.Snapshot())
	e.Histogram(obs.Family{Name: "dp_serve_run_seconds", Type: "histogram",
		Help: "Engine run latency (memo misses only)."}, "", m.runHist.Snapshot())
	e.Histogram(obs.Family{Name: "dp_serve_request_seconds", Type: "histogram",
		Help: "End-to-end /v1/query latency, all outcomes."}, "", m.requestHist.Snapshot())
	return e.Err()
}
