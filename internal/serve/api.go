// The wire API of dpserve: JSON request/response schemas and error
// codes. docs/SERVING.md is the user-facing reference for everything
// in this file; keep the two in sync.

package serve

import "encoding/json"

// QueryRequest is the body of POST /v1/query (and, without run
// options, POST /v1/compile). Exactly one of Problem and Spec must be
// set.
type QueryRequest struct {
	// Tenant attributes the request for metrics and per-tenant
	// admission control; the X-DP-Tenant header takes precedence.
	// Empty means "default".
	Tenant string `json:"tenant,omitempty"`
	// Problem names a builtin problem (dpgen.Builtins) to run with its
	// own kernel and serial-reference semantics.
	Problem string `json:"problem,omitempty"`
	// Spec is generator spec text (docs/SPEC.md). Its code fragments
	// are ignored; the center loop comes from Kernel.
	Spec string `json:"spec,omitempty"`
	// Kernel names a generic kernel for Spec requests (GenericKernels;
	// default "mix"). Ignored with Problem.
	Kernel string `json:"kernel,omitempty"`
	// Params are the parameter values, one per spec parameter. Empty
	// selects the builtin's defaults (Problem requests only).
	Params []int64 `json:"params,omitempty"`
	// Nodes and Threads size the in-process run (defaults 1 and 1,
	// capped by the server's -max-nodes/-max-threads).
	Nodes   int `json:"nodes,omitempty"`
	Threads int `json:"threads,omitempty"`
	// NoResultCache skips the result memo for this request (it still
	// coalesces with identical in-flight queries and still uses the
	// compiled-spec cache).
	NoResultCache bool `json:"noResultCache,omitempty"`
	// Trace captures a tile-lifecycle trace of this run and returns it
	// as Chrome trace-event JSON. Trace requests bypass the result memo
	// and coalescing (they need a run of their own).
	Trace bool `json:"trace,omitempty"`
}

// QueryResponse is the body of a successful POST /v1/query.
type QueryResponse struct {
	// Value is the state value at the spec's goal location; Max the
	// maximum over the whole space (absent when no finite maximum was
	// tracked, e.g. all-NaN).
	Value float64  `json:"value"`
	Max   *float64 `json:"max,omitempty"`
	// Cells is the number of iteration-space cells the run computed.
	Cells int64 `json:"cells"`
	// SpecHash is the compiled-spec cache key of the canonicalized
	// spec; repeat it in /v1/stats output and metrics to correlate.
	SpecHash string `json:"specHash"`
	// Kernel is the kernel the run used (a generic kernel name, or
	// "builtin:<problem>").
	Kernel string `json:"kernel"`
	// Cached reports a result-memo hit (no engine run at all);
	// Coalesced that this request shared another request's in-flight
	// run; CompileCached that the spec compile was a cache hit.
	Cached        bool `json:"cached"`
	Coalesced     bool `json:"coalesced"`
	CompileCached bool `json:"compileCached"`
	// CompileMs and RunMs are this request's compile and engine-run
	// wall times (zero on cache hits).
	CompileMs float64 `json:"compileMs"`
	RunMs     float64 `json:"runMs"`
	// Trace is the Chrome trace-event JSON of the run, when requested.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// CompileResponse is the body of a successful POST /v1/compile.
type CompileResponse struct {
	// SpecHash is the compiled-spec cache key.
	SpecHash string `json:"specHash"`
	// CompileCached reports whether the spec was already compiled.
	CompileCached bool `json:"compileCached"`
	// CompileMs is the compile wall time (zero on a cache hit).
	CompileMs float64 `json:"compileMs"`
	// Canonical is the canonical spec form the hash covers.
	Canonical string `json:"canonical"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	// Code is a stable machine-readable error code (Err* constants).
	Code string `json:"code"`
	// Error is the human-readable message.
	Error string `json:"error"`
}

// Stable error codes carried in ErrorResponse.Code.
const (
	// ErrBadRequest: malformed JSON, missing/conflicting fields, bad
	// parameters or unknown problem/kernel names (HTTP 400).
	ErrBadRequest = "bad_request"
	// ErrCompile: the spec failed to parse, validate or analyze; the
	// failure is negatively cached under the spec's hash (HTTP 400).
	ErrCompile = "compile_error"
	// ErrOverloaded: a compile/run/tenant queue was full and the
	// request was shed; Retry-After carries the backoff estimate
	// (HTTP 429).
	ErrOverloaded = "overloaded"
	// ErrShutdown: the server is draining (HTTP 503).
	ErrShutdown = "shutting_down"
	// ErrInternal: an engine failure not attributable to the request
	// (HTTP 500).
	ErrInternal = "internal"
)

// StatsResponse is the body of GET /v1/stats: a point-in-time snapshot
// of the server's caches, queues and counters.
type StatsResponse struct {
	// Uptime is seconds since the server started.
	Uptime float64 `json:"uptimeSeconds"`
	// Requests counts every /v1/query and /v1/compile request by
	// outcome class.
	Requests map[string]int64 `json:"requests"`
	// SpecCache and ResultCache are cache counters.
	SpecCache   CacheStats `json:"specCache"`
	ResultCache CacheStats `json:"resultCache"`
	// Coalesced counts requests that shared another's in-flight run;
	// Shed counts 429 responses; CompileErrors counts negatively
	// cached compile failures (distinct specs).
	Coalesced     int64 `json:"coalesced"`
	Shed          int64 `json:"shed"`
	CompileErrors int64 `json:"compileErrors"`
	// Compiles and Runs count work actually performed (cache misses).
	Compiles int64 `json:"compiles"`
	Runs     int64 `json:"runs"`
	// QueueDepth reports current waiters per gate ("compile", "run").
	QueueDepth map[string]int64 `json:"queueDepth"`
	// Inflight reports current holders per gate.
	Inflight map[string]int64 `json:"inflight"`
}

// CacheStats is one cache's counters inside StatsResponse.
type CacheStats struct {
	// Entries and Bytes are current occupancy (Bytes is approximate
	// and zero for caches without a byte bound).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Hits, Misses and Evictions are cumulative.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}
