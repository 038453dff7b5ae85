// Post-run observability plumbing for the -launch supervisor and the
// standalone -check-trace mode: merging per-rank traces into one
// clock-aligned Perfetto file, rolling per-rank stats JSON into one
// array, scraping and aggregating the children's live /metrics
// endpoints, and verifying merged-trace invariants.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"dpgen"
	"dpgen/internal/obs"
	"dpgen/internal/problems"
)

// postRun performs the supervisor's after-the-job observability work:
// trace merge + verification, the run-wide report, the stats-JSON
// rollup and the final metrics snapshot. Returns a process exit code.
func postRun(lc launchConfig, statsBase string, restarted bool) int {
	var merged *dpgen.Trace
	if lc.traceOut != "" {
		var err error
		merged, err = mergeRankTraces(lc.traceOut, lc.n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "supervisor: trace merge failed: %v\n", err)
			return 1
		}
		// A restarted rank legitimately orphans the sends of its dead
		// incarnation and re-receives replayed frames, so exact flow
		// pairing only holds for clean runs.
		strict := !lc.lenient && !restarted
		if viol := dpgen.VerifyMergedTrace(merged, strict); len(viol) > 0 {
			for _, v := range viol {
				fmt.Fprintf(os.Stderr, "supervisor: merged trace invariant violated: %s\n", v)
			}
			return 1
		}
		fmt.Printf("trace     %s (merged, %d ranks, %d events, %d flows)\n",
			lc.traceOut, lc.n, len(merged.Events), len(merged.Flows))
	}
	if lc.report {
		if merged == nil {
			fmt.Fprintln(os.Stderr, "supervisor: -report needs -trace to collect the per-rank timelines")
			return 1
		}
		rr, err := buildReport(lc.problem, merged)
		if err != nil {
			fmt.Fprintf(os.Stderr, "supervisor: report failed: %v\n", err)
			return 1
		}
		if err := rr.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if lc.statsJSON != "" {
		if err := rollupStats(lc.statsJSON, statsBase, lc.n); err != nil {
			fmt.Fprintf(os.Stderr, "supervisor: stats rollup failed: %v\n", err)
			return 1
		}
	}
	if lc.metricsOut != "" {
		if err := rollupMetrics(lc.metricsOut, lc.n); err != nil {
			fmt.Fprintf(os.Stderr, "supervisor: metrics rollup failed: %v\n", err)
			return 1
		}
		fmt.Printf("metrics   %s (aggregated over %d ranks)\n", lc.metricsOut, lc.n)
	}
	return 0
}

// mergeRankTraces parses every <out>.rank<r> file, merges them onto
// rank 0's timeline and writes the single Perfetto file to out. The
// per-rank files are removed on success.
func mergeRankTraces(out string, n int) (*dpgen.Trace, error) {
	traces := make([]*dpgen.Trace, 0, n)
	for r := 0; r < n; r++ {
		path := rankFile(out, r)
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("rank %d wrote no trace: %w", r, err)
		}
		tr, err := dpgen.ParseTrace(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		traces = append(traces, tr)
	}
	merged, err := dpgen.MergeTraces(traces)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(out)
	if err != nil {
		return nil, err
	}
	if err := merged.WriteChrome(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	for r := 0; r < n; r++ {
		os.Remove(rankFile(out, r))
	}
	return merged, nil
}

// buildReport resolves the problem's dependence shape and computes the
// run-wide report over a merged trace.
func buildReport(problem string, merged *dpgen.Trace) (*dpgen.RunReport, error) {
	p, err := problems.Get(problem)
	if err != nil {
		return nil, err
	}
	tl, err := dpgen.Analyze(p.Spec)
	if err != nil {
		return nil, err
	}
	return dpgen.BuildRunReport(tl, merged, 0)
}

// rollupStats combines the children's per-rank stats files into one
// JSON array at out ("-" writes to stdout) and removes the rank files.
func rollupStats(out, base string, n int) error {
	docs := make([]json.RawMessage, 0, n)
	for r := 0; r < n; r++ {
		path := rankFile(base, r)
		b, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("rank %d wrote no stats: %w", r, err)
		}
		if !json.Valid(b) {
			return fmt.Errorf("rank %d stats file %s is not valid JSON", r, path)
		}
		docs = append(docs, json.RawMessage(b))
	}
	enc, err := json.MarshalIndent(docs, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(enc)
	} else {
		err = os.WriteFile(out, enc, 0o644)
	}
	if err != nil {
		return err
	}
	for r := 0; r < n; r++ {
		os.Remove(rankFile(base, r))
	}
	return nil
}

// statsDoc is the schema of -stats-json: the run identity, result
// timings and the per-node statistics (NodeStats carries the recovery
// and wire counters), plus the transport's wire-level snapshot for
// distributed ranks.
type statsDoc struct {
	Problem      string             `json:"problem"`
	Params       []int64            `json:"params"`
	Rank         int                `json:"rank"`
	Ranks        int                `json:"ranks"`
	Value        float64            `json:"value"`
	Max          float64            `json:"max"`
	InitSeconds  float64            `json:"init_seconds"`
	TotalSeconds float64            `json:"total_seconds"`
	Messages     int64              `json:"messages"`
	Elems        int64              `json:"elems"`
	Nodes        []dpgen.NodeStats  `json:"nodes"`
	Net          *dpgen.TCPNetStats `json:"net,omitempty"`
}

// writeStatsJSON writes one rank's (or a simulated run's) statistics
// document to path; "-" writes to stdout.
func writeStatsJSON(path, problem string, params []int64, rank int, distrib bool, res *dpgen.Result, tr dpgen.Transport) error {
	doc := statsDoc{
		Problem:      problem,
		Params:       params,
		Ranks:        len(res.Stats),
		Value:        res.Value,
		Max:          res.Max,
		InitSeconds:  res.InitTime.Seconds(),
		TotalSeconds: res.TotalTime.Seconds(),
		Messages:     res.Messages,
		Elems:        res.Elems,
	}
	if distrib {
		// Remote ranks report their own stats; only the local entry is
		// populated here.
		doc.Rank = rank
		doc.Nodes = []dpgen.NodeStats{res.Stats[rank]}
		if ns, ok := dpgen.TransportNetStats(tr); ok {
			doc.Net = &ns
		}
	} else {
		doc.Rank = -1
		doc.Nodes = res.Stats
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}

// checkTraceMain is the -check-trace entry point: parse a merged trace
// file, verify its invariants (strict flow pairing unless lenient) and
// check the cross-rank critical path does not exceed the merged
// makespan. Returns a process exit code.
func checkTraceMain(path, problem string, lenient bool) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	tr, err := dpgen.ParseTrace(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "check-trace: parsing %s: %v\n", path, err)
		return 1
	}
	if viol := dpgen.VerifyMergedTrace(tr, !lenient); len(viol) > 0 {
		for _, v := range viol {
			fmt.Fprintf(os.Stderr, "check-trace: invariant violated: %s\n", v)
		}
		return 1
	}
	rr, err := buildReport(problem, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "check-trace: %v\n", err)
		return 1
	}
	if cp := rr.CritPath; cp != nil && cp.CriticalPath > cp.Makespan {
		fmt.Fprintf(os.Stderr, "check-trace: critical path %s exceeds makespan %s\n",
			cp.CriticalPath, cp.Makespan)
		return 1
	}
	fmt.Printf("check-trace OK: %s (%d ranks, %d events, %d flows)\n",
		path, trRanks(tr), len(tr.Events), len(tr.Flows))
	return 0
}

// trRanks reports the rank count recorded in a trace's metadata.
func trRanks(tr *dpgen.Trace) int {
	if tr.Meta != nil {
		return tr.Meta.Ranks
	}
	return 1
}

// rollupMetrics aggregates the children's final per-rank Prometheus
// snapshot files into one exposition at out, merged family by family,
// and removes the rank files. Children self-label every sample with
// their rank, so no sample is rewritten.
func rollupMetrics(out string, n int) error {
	bodies := make([]string, n)
	for r := range bodies {
		b, err := os.ReadFile(rankFile(out, r))
		if err != nil {
			return fmt.Errorf("rank %d wrote no metrics snapshot: %w", r, err)
		}
		bodies[r] = string(b)
	}
	if err := os.WriteFile(out, []byte(obs.MergeExposition(bodies)), 0o644); err != nil {
		return err
	}
	for r := 0; r < n; r++ {
		os.Remove(rankFile(out, r))
	}
	return nil
}

// metricsScraper scrapes the children's live /metrics endpoints on
// demand and renders the job-wide aggregate — the body of the
// supervisor's own /metrics endpoint. The most recent successful
// scrape per rank is retained so a rank mid-restart keeps its last
// known state in the aggregate.
type metricsScraper struct {
	addrs  func() map[int]string // current child endpoints, by rank
	client *http.Client

	mu   sync.Mutex
	last []string // by rank: the most recent scraped body
}

func newMetricsScraper(addrs func() map[int]string, ranks int) *metricsScraper {
	return &metricsScraper{
		addrs:  addrs,
		client: &http.Client{Timeout: 2 * time.Second},
		last:   make([]string, ranks),
	}
}

// scrape fetches every currently-known child endpoint and retains the
// bodies of the successful fetches.
func (m *metricsScraper) scrape() {
	for r, addr := range m.addrs() {
		body, err := m.fetch(addr)
		if err != nil {
			continue // child mid-exit or mid-restart; keep the last snapshot
		}
		m.mu.Lock()
		m.last[r] = body
		m.mu.Unlock()
	}
}

func (m *metricsScraper) fetch(addr string) (string, error) {
	resp, err := m.client.Get("http://" + addr + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %s", resp.Status)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	return string(b), err
}

// aggregate scrapes all live children on demand and writes the job-wide
// exposition, merged family by family — the body of the supervisor's
// /metrics.
func (m *metricsScraper) aggregate(w io.Writer) error {
	m.scrape()
	m.mu.Lock()
	body := obs.MergeExposition(m.last)
	m.mu.Unlock()
	_, err := io.WriteString(w, body)
	return err
}
