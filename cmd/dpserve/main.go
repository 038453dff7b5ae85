// Command dpserve runs the DP-as-a-service daemon: a multi-tenant HTTP
// server (dpgen/internal/serve) that accepts spec text or builtin
// problem names plus parameters, compiles each distinct spec once into
// a keyed program cache, coalesces identical in-flight queries into one
// engine run, memoizes results in a size-bounded LRU, and sheds load
// with 429 + Retry-After when its bounded compile/run queues fill.
//
// Endpoints: POST /v1/query, POST /v1/compile, GET /v1/catalog,
// GET /v1/stats, GET /metrics (Prometheus), GET /healthz,
// /debug/pprof/*. docs/SERVING.md is the full reference; cmd/dploadgen
// is the matching load driver.
//
// Usage:
//
//	dpserve -addr :8080
//	dpserve -addr :8080 -max-runs 4 -run-queue 32 -tenant-concurrency 2
//
// SIGINT/SIGTERM drains: new queries get 503 while in-flight requests
// finish, and dpserve exits as soon as the last one does, or once -drain
// has passed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dpgen/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		maxRuns      = flag.Int("max-runs", 0, "concurrent engine runs (0: GOMAXPROCS)")
		runQueue     = flag.Int("run-queue", 64, "run-slot waiters before shedding (-1: none)")
		maxCompiles  = flag.Int("max-compiles", 2, "concurrent spec compiles")
		compileQueue = flag.Int("compile-queue", 16, "compile-slot waiters before shedding (-1: none)")
		tenantConc   = flag.Int("tenant-concurrency", 0, "per-tenant concurrent requests (0: same as -max-runs)")
		tenantQueue  = flag.Int("tenant-queue", 0, "per-tenant waiters before shedding (0: same as -run-queue)")
		specCache    = flag.Int("spec-cache", 256, "compiled-spec cache entries")
		maxNodes     = flag.Int("max-nodes", 8, "largest simulated node count a query may ask for")
		maxThreads   = flag.Int("max-threads", 0, "largest thread count a query may ask for (0: GOMAXPROCS)")
		drain        = flag.Duration("drain", 10*time.Second, "longest wait for in-flight requests on shutdown")
	)
	flag.Parse()

	s := serve.New(serve.Options{
		MaxConcurrentRuns:     *maxRuns,
		MaxRunQueue:           *runQueue,
		MaxConcurrentCompiles: *maxCompiles,
		MaxCompileQueue:       *compileQueue,
		TenantConcurrency:     *tenantConc,
		TenantQueue:           *tenantQueue,
		SpecCacheEntries:      *specCache,
		MaxNodes:              *maxNodes,
		MaxThreads:            *maxThreads,
	})
	h, err := s.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("dpserve: listening on %s\n", h.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("dpserve: draining (up to %s)\n", *drain)
	s.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := h.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "dpserve: %v; closing\n", err)
		h.Close()
	}
}
