package serve

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dpgen/internal/balance"
	"dpgen/internal/engine"
	"dpgen/internal/spec"
	"dpgen/internal/tiling"
)

// The front end of a served run miss: what a query pays outside its
// cells. serve-mix's run misses post the served triangle at a size not
// asked before (N from 280 to 409), so each one resolves spec text the
// server has seen, hits the compiled-spec cache, prepares a new size and
// runs on one thread.

// servedSizes is serve-mix's size range. Cycling through it in order
// misses the prepared-front cache every time: it is twice that cache's
// bound.
const servedMinN, servedSizes = 280, 130

// oneTileN makes the served triangle one 16×16 tile: its run is all
// start-up.
const oneTileN = 10

func servedTiling(tb testing.TB) *tiling.Tiling {
	tb.Helper()
	sp, err := spec.Parse(servedTriangle)
	if err != nil {
		tb.Fatal(err)
	}
	tl, err := tiling.New(sp)
	if err != nil {
		tb.Fatal(err)
	}
	return tl
}

// BenchmarkServeRunMiss times a served run miss and its front-end
// parts, each with its allocations. query is the server's own resolve,
// the compiled-spec cache hit, Prepare at a size not seen before and Run
// on one thread; resolve resolves spec text the server has seen; prepare
// is engine.Prepare of the triangle at a new size; start-up is
// Prepared.Run of a one-tile instance.
//
//	go test -bench ServeRunMiss -benchmem -run '^$' ./internal/serve
func BenchmarkServeRunMiss(b *testing.B) {
	req := func(n int64) QueryRequest {
		return QueryRequest{Spec: servedTriangle, Kernel: "longest", Params: []int64{n}, Threads: 1}
	}
	b.Run("query", func(b *testing.B) {
		s := New(Options{MaxConcurrentRuns: 1, MaxThreads: 1})
		warm := req(servedMinN)
		if _, ae := s.resolve(&warm); ae != nil {
			b.Fatal(ae)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := req(servedMinN + int64(i%servedSizes))
			r, ae := s.resolve(&q)
			if ae != nil {
				b.Fatal(ae)
			}
			if _, err := s.compute(context.Background(), r, "bench", false, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("resolve", func(b *testing.B) {
		s := New(Options{})
		q := req(345)
		r, ae := s.resolve(&q)
		if ae != nil {
			b.Fatal(ae)
		}
		if _, err := s.compute(context.Background(), r, "bench", false, false); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ae := s.resolve(&q); ae != nil {
				b.Fatal(ae)
			}
		}
	})
	tl := servedTiling(b)
	b.Run("prepare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Prepare(tl, []int64{servedMinN + int64(i%servedSizes)}, 1, balance.Prefix); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("start-up", func(b *testing.B) {
		prep, err := engine.Prepare(tl, []int64{oneTileN}, 1, balance.Prefix)
		if err != nil {
			b.Fatal(err)
		}
		k, err := lookupKernel("longest")
		if err != nil {
			b.Fatal(err)
		}
		cfg := engine.Config{Nodes: 1, Threads: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prep.Run(k, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// countParses makes s count the requests it resolves by parsing (or by
// looking up a builtin) instead of from its text index.
func countParses(s *Server) *atomic.Int64 {
	var n atomic.Int64
	s.testParsed = func() { n.Add(1) }
	return &n
}

// A spec text the server has resolved is answered from the text index:
// neither the repeat run miss nor the memo hit parses it, and both reach
// the compiled entry the first request compiled.
func TestRepeatedTextIsNotParsed(t *testing.T) {
	s, ts := testServer(t, Options{})
	parses := countParses(s)
	first := query(t, ts.URL, QueryRequest{Spec: servedTriangle, Kernel: "longest", Params: []int64{40}})
	miss := query(t, ts.URL, QueryRequest{Spec: servedTriangle, Kernel: "longest", Params: []int64{41}})
	hit := query(t, ts.URL, QueryRequest{Spec: servedTriangle, Kernel: "longest", Params: []int64{40}})
	if got := parses.Load(); got != 1 {
		t.Errorf("parses = %d, want 1 (the first request only)", got)
	}
	if !miss.CompileCached || miss.Cached || !hit.Cached {
		t.Errorf("repeat run miss compileCached %v cached %v; memo hit cached %v", miss.CompileCached, miss.Cached, hit.Cached)
	}
	if miss.SpecHash != first.SpecHash || hit.SpecHash != first.SpecHash || hit.Value != first.Value {
		t.Errorf("repeats answered %s/%s %v, first %s %v", miss.SpecHash, hit.SpecHash, hit.Value, first.SpecHash, first.Value)
	}
	if got := s.met.compiles.Load(); got != 1 {
		t.Errorf("compiles = %d, want 1", got)
	}
	// A builtin name is indexed the same way.
	query(t, ts.URL, QueryRequest{Problem: "lcs2"})
	query(t, ts.URL, QueryRequest{Problem: "lcs2", NoResultCache: true})
	if got := parses.Load(); got != 2 {
		t.Errorf("parses = %d after two lcs2 queries, want 2", got)
	}
}

// The exact text is the index key, the canonical hash sits behind it:
// texts that differ only in whitespace or comments are indexed apart and
// share one compiled entry.
func TestSpelledApartTextsShareCompiledEntry(t *testing.T) {
	s, ts := testServer(t, Options{})
	parses := countParses(s)
	respelled := "# the served triangle\n" + strings.ReplaceAll(servedTriangle, "\n", "\n\n  ")
	a := query(t, ts.URL, QueryRequest{Spec: servedTriangle, Kernel: "longest", Params: []int64{30}})
	b := query(t, ts.URL, QueryRequest{Spec: respelled, Kernel: "longest", Params: []int64{31}})
	query(t, ts.URL, QueryRequest{Spec: respelled, Kernel: "longest", Params: []int64{32}})
	if a.SpecHash != b.SpecHash || !b.CompileCached {
		t.Errorf("respelled text: hash %s compileCached %v, want %s and true", b.SpecHash, b.CompileCached, a.SpecHash)
	}
	if got := s.met.compiles.Load(); got != 1 {
		t.Errorf("compiles = %d, want 1", got)
	}
	if got := parses.Load(); got != 2 {
		t.Errorf("parses = %d, want 2 (one per distinct text)", got)
	}
	if entries, _, _, _, _ := s.texts.stats(); entries != 2 {
		t.Errorf("text index holds %d entries, want 2", entries)
	}
}

// Unparseable text is still negatively cached: its repeat is rejected
// from the index and the negative entry, with neither a parse nor a
// compile.
func TestUnparseableTextStaysNegativelyCached(t *testing.T) {
	s, ts := testServer(t, Options{})
	parses := countParses(s)
	for round := 0; round < 3; round++ {
		status, body, _ := post(t, ts.URL, "/v1/query", QueryRequest{Spec: "this is not a spec"}, nil)
		if status != http.StatusBadRequest || !strings.Contains(string(body), ErrCompile) {
			t.Fatalf("round %d: status %d\n%s", round, status, body)
		}
	}
	if got := parses.Load(); got != 1 {
		t.Errorf("parses = %d, want 1", got)
	}
	if got := s.met.compiles.Load(); got != 1 {
		t.Errorf("compiles = %d, want 1", got)
	}
}

// The text index is bounded like the compiled-spec cache: past
// SpecCacheEntries texts the least recently used is evicted, and its
// next request is parsed again.
func TestTextIndexEvictsAtItsBound(t *testing.T) {
	s, ts := testServer(t, Options{SpecCacheEntries: 2})
	parses := countParses(s)
	texts := []string{servedTriangle, triSpecA, triSpecB + "\n"}
	for _, text := range texts {
		query(t, ts.URL, QueryRequest{Spec: text, Params: []int64{12}, NoResultCache: true})
	}
	entries, _, _, _, evictions := s.texts.stats()
	if entries != 2 || evictions != 1 {
		t.Errorf("text index: %d entries, %d evictions; want 2 and 1", entries, evictions)
	}
	query(t, ts.URL, QueryRequest{Spec: texts[2], Params: []int64{12}, NoResultCache: true})
	if got := parses.Load(); got != 3 {
		t.Errorf("parses = %d after a repeat of the newest text, want 3", got)
	}
	query(t, ts.URL, QueryRequest{Spec: texts[0], Params: []int64{12}, NoResultCache: true})
	if got := parses.Load(); got != 4 {
		t.Errorf("parses = %d after the evicted text, want 4", got)
	}
}

// Concurrent resolves of one text, the first of them racing to index it,
// agree on the compiled entry (run under -race).
func TestConcurrentResolvesOfOneText(t *testing.T) {
	s := New(Options{})
	var wg sync.WaitGroup
	hashes := make([]string, 8)
	for g := range hashes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				req := QueryRequest{Spec: servedTriangle, Kernel: "longest", Params: []int64{int64(20 + i)}}
				r, ae := s.resolve(&req)
				if ae != nil {
					t.Error(ae)
					return
				}
				cs, _, err := s.getCompiled(context.Background(), r)
				if err != nil || cs.err != nil {
					t.Error(err, cs)
					return
				}
				hashes[g] = cs.hash
			}
		}()
	}
	wg.Wait()
	for _, h := range hashes {
		if h != hashes[0] {
			t.Fatalf("resolves disagree: %v", hashes)
		}
	}
	if got := s.met.compiles.Load(); got != 1 {
		t.Errorf("compiles = %d, want 1", got)
	}
}

// Allocation pins for the front end of a served run miss, each at the
// count this code reaches on go1.24 (testing.AllocsPerRun, not wall
// clock). Before the text index, the probes bound once and Prepare's
// scratch reuse they were 185 (resolve), 367 (Prepare) and 204 (one-tile
// run).
const (
	resolveAllocs = 5
	prepareAllocs = 90
	startupAllocs = 67
)

func TestFrontEndAllocs(t *testing.T) {
	s := New(Options{})
	req := QueryRequest{Spec: servedTriangle, Kernel: "longest", Params: []int64{345}}
	r, ae := s.resolve(&req)
	if ae != nil {
		t.Fatal(ae)
	}
	if _, _, err := s.getCompiled(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() { s.resolve(&req) }); a > resolveAllocs {
		t.Errorf("repeated-text resolve: %v allocations, pinned at %d", a, resolveAllocs)
	}
	tl := servedTiling(t)
	if a := testing.AllocsPerRun(50, func() { engine.Prepare(tl, []int64{345}, 1, balance.Prefix) }); a > prepareAllocs {
		t.Errorf("Prepare at N = 345: %v allocations, pinned at %d", a, prepareAllocs)
	}
	prep, err := engine.Prepare(tl, []int64{oneTileN}, 1, balance.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	k, err := lookupKernel("longest")
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{Nodes: 1, Threads: 1}
	if a := testing.AllocsPerRun(50, func() { prep.Run(k, cfg) }); a > startupAllocs {
		t.Errorf("one-tile run: %v allocations, pinned at %d", a, startupAllocs)
	}
}
