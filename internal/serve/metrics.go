// Per-tenant serving metrics in the Prometheus text-exposition format,
// served at /metrics next to the run-level families the rest of the
// system already exports (dpgen/internal/obs). Counter reads are
// atomic; histograms reuse obs.Histogram, whose snapshots are safe to
// take mid-flight.

package serve

import (
	"fmt"
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
	sort.Strings(names)
	blocks := make([]*tenantStats, len(names))
	for i, name := range names {
		blocks[i] = m.tenants[name]
	}
	m.mu.RUnlock()

	fmt.Fprintf(w, "# HELP dp_serve_requests_total Requests by tenant and outcome code class.\n# TYPE dp_serve_requests_total counter\n")
	for i, name := range names {
		ts := blocks[i]
		for _, c := range []struct {
			code string
			v    int64
		}{
			{"ok", ts.ok.Load()},
			{"bad_request", ts.badReq.Load()},
			{"shed", ts.shed.Load()},
			{"error", ts.failed.Load()},
		} {
			fmt.Fprintf(w, "dp_serve_requests_total{tenant=%q,code=%q} %d\n", name, c.code, c.v)
		}
	}
	fmt.Fprintf(w, "# HELP dp_serve_coalesced_total Requests that shared another request's in-flight run.\n# TYPE dp_serve_coalesced_total counter\n")
	for i, name := range names {
		fmt.Fprintf(w, "dp_serve_coalesced_total{tenant=%q} %d\n", name, blocks[i].coalesced.Load())
	}
	fmt.Fprintf(w, "# HELP dp_serve_shed_total Requests shed with 429 by tenant.\n# TYPE dp_serve_shed_total counter\n")
	for i, name := range names {
		fmt.Fprintf(w, "dp_serve_shed_total{tenant=%q} %d\n", name, blocks[i].shed.Load())
	}
	fmt.Fprintf(w, "# HELP dp_serve_result_cache_hits_total Result-memo hits by tenant.\n# TYPE dp_serve_result_cache_hits_total counter\n")
	for i, name := range names {
		fmt.Fprintf(w, "dp_serve_result_cache_hits_total{tenant=%q} %d\n", name, blocks[i].resultHit.Load())
	}

	for _, c := range []struct {
		name, help string
		cache      *lruCache
	}{
		{"dp_serve_spec_cache", "Compiled-spec cache", s.specCache},
		{"dp_serve_result_cache", "Result memo", s.resultCache},
	} {
		entries, bytes, hits, misses, evictions := c.cache.stats()
		fmt.Fprintf(w, "# HELP %s_events_total %s hit/miss/eviction counters.\n# TYPE %s_events_total counter\n",
			c.name, c.help, c.name)
		fmt.Fprintf(w, "%s_events_total{event=\"hit\"} %d\n", c.name, hits)
		fmt.Fprintf(w, "%s_events_total{event=\"miss\"} %d\n", c.name, misses)
		fmt.Fprintf(w, "%s_events_total{event=\"eviction\"} %d\n", c.name, evictions)
		fmt.Fprintf(w, "# HELP %s_entries %s current entries.\n# TYPE %s_entries gauge\n", c.name, c.help, c.name)
		fmt.Fprintf(w, "%s_entries %d\n", c.name, entries)
		fmt.Fprintf(w, "# HELP %s_bytes %s approximate bytes.\n# TYPE %s_bytes gauge\n", c.name, c.help, c.name)
		fmt.Fprintf(w, "%s_bytes %d\n", c.name, bytes)
	}

	fmt.Fprintf(w, "# HELP dp_serve_compiles_total Spec compiles performed (cache misses).\n# TYPE dp_serve_compiles_total counter\ndp_serve_compiles_total %d\n", m.compiles.Load())
	fmt.Fprintf(w, "# HELP dp_serve_compile_errors_total Distinct specs that failed to compile (negatively cached).\n# TYPE dp_serve_compile_errors_total counter\ndp_serve_compile_errors_total %d\n", m.compileErrors.Load())
	fmt.Fprintf(w, "# HELP dp_serve_runs_total Engine runs performed (memo misses, after coalescing).\n# TYPE dp_serve_runs_total counter\ndp_serve_runs_total %d\n", m.runs.Load())

	fmt.Fprintf(w, "# HELP dp_serve_queue_depth Current waiters per admission gate.\n# TYPE dp_serve_queue_depth gauge\n")
	fmt.Fprintf(w, "# HELP dp_serve_inflight Current holders per admission gate.\n# TYPE dp_serve_inflight gauge\n")
	for _, g := range []struct {
		name string
		gate *gate
	}{{"compile", s.compileGate}, {"run", s.runGate}} {
		queued, inflight := g.gate.depth()
		fmt.Fprintf(w, "dp_serve_queue_depth{queue=%q} %d\n", g.name, queued)
		fmt.Fprintf(w, "dp_serve_inflight{queue=%q} %d\n", g.name, inflight)
	}

	if err := m.compileHist.Snapshot().WritePrometheus(w, "dp_serve_compile_seconds",
		"Spec compile latency (cache misses only).", ""); err != nil {
		return err
	}
	// What the compiles above asked of the exact LP solver, process-wide:
	// a tenant spec whose coefficients push it off the small-rational
	// arithmetic shows up as big.Rat fallbacks (and slow compiles).
	lp := simplex.ReadStats()
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"solves", "LP questions (feasibility, redundancy, optimum) the polyhedral analysis put to the simplex.", lp.Solves},
		{"pivots", "Small-rational simplex pivots.", lp.Pivots},
		{"bigrat_fallbacks", "LP questions whose arithmetic left int64 and were answered again on math/big rationals.", lp.BigFallbacks},
	} {
		fmt.Fprintf(w, "# HELP dpserve_analysis_simplex_%s_total %s\n# TYPE dpserve_analysis_simplex_%s_total counter\ndpserve_analysis_simplex_%s_total %d\n",
			c.name, c.help, c.name, c.name, c.v)
	}
	if err := m.runHist.Snapshot().WritePrometheus(w, "dp_serve_run_seconds",
		"Engine run latency (memo misses only).", ""); err != nil {
		return err
	}
	return m.requestHist.Snapshot().WritePrometheus(w, "dp_serve_request_seconds",
		"End-to-end /v1/query latency, all outcomes.", "")
}
