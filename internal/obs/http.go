// Live telemetry endpoints. Each rank of a distributed run (and the
// supervisor itself) can serve /metrics in the Prometheus text format
// plus the standard /debug/pprof handlers on a loopback or cluster
// address, so a run can be inspected while it is in flight — the same
// surface the future multi-tenant dpserve will scrape per tenant.
//
// The metrics callback must only read concurrency-safe state (atomic
// transport counters, histogram snapshots): trace ring buffers are
// single-writer and must not be snapshotted mid-run.

package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server serves live observability endpoints for one process.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP server on addr (host:port; port 0 picks a free
// one) with /metrics, /debug/pprof/* and /healthz. metrics is invoked
// per scrape to write a Prometheus text snapshot; it must be safe to
// call concurrently with the run.
func Serve(addr string, metrics func(w io.Writer) error) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(metrics))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
