// Command dploadgen is the closed-loop load driver for dpserve: N
// concurrent clients issue a mixed stream of /v1/query requests
// (builtin problems and spec-text variants, spread over tenants and
// parameter values), and the tool reports throughput, p50/p95/p99
// latency, and the cache/coalescing/shedding behaviour per concurrency
// level.
//
// Usage:
//
//	dpserve -addr :8080 &
//	dploadgen -addr http://localhost:8080 -clients 4,16 -duration 10s
//
// Exit-code gates for CI smoke tests:
//
//	-require-cache-hits   fail unless the run saw cached or coalesced
//	                      responses (the caches demonstrably worked)
//	-max-5xx N            fail if more than N responses were 5xx
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dpgen/internal/problems"
	"dpgen/internal/serve"
)

// triSpec is the spec-text half of the mix: a triangular 2-D space
// whose parameter is varied per request to control result-memo hit
// rates. All spellings of it hash to one compiled program server-side.
const triSpec = `name loadtri
params N
vars i j
constraint 0 <= i <= N
constraint 0 <= j <= i
dep left -1 0
dep down 0 -1
tile 8 8
`

type sample struct {
	ns        int64
	status    int
	cached    bool
	coalesced bool
	// retryAfter is the server's Retry-After backoff on a 429/503
	// response (zero when absent); the closed loop honours it before
	// its next request instead of hammering a shedding server.
	retryAfter time.Duration
}

// The mix is fixed: the builtins in mixProblems and the spec text, a
// free-param problem and the spec text at paramSpread sizes each, spread
// over mixTenants tenants. Each client draws from an RNG seeded from
// mixSeed and its index. A query asks for the server's default of one
// node and one thread.
var mixProblems = []string{"editdist", "lcs2", "bandit2"}

const (
	paramSpread = 4
	mixTenants  = 2
	mixSeed     = 1
)

// maxRetryAfter caps the honoured Retry-After backoff so a
// misconfigured or adversarial server cannot park a client for the
// rest of the run.
const maxRetryAfter = 2 * time.Second

// levelRow is one concurrency level's aggregate.
type levelRow struct {
	Clients   int
	Requests  int
	OK        int
	Cached    int
	Coalesced int
	Shed      int
	Err4xx    int
	Err5xx    int
	QPS       float64
	P50Ms     float64
	P95Ms     float64
	P99Ms     float64
}

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "dpserve base URL")
		clients  = flag.String("clients", "4,16", "comma-separated concurrency levels, run in order")
		duration = flag.Duration("duration", 10*time.Second, "wall time per level")
		noMemo   = flag.Bool("no-result-cache", false, "set noResultCache on every query (forces a run per non-coalesced request; used to provoke shedding)")
		wantHits = flag.Bool("require-cache-hits", false, "exit 1 unless cached or coalesced responses occurred")
		max5xx   = flag.Int("max-5xx", -1, "exit 1 if 5xx responses exceed this (-1: no gate)")
	)
	flag.Parse()

	reqs := buildMix(*noMemo)
	var levels []int
	for _, f := range strings.Split(*clients, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "dploadgen: bad -clients element %q\n", f)
			os.Exit(1)
		}
		levels = append(levels, n)
	}

	fmt.Printf("%-8s %9s %7s %7s %9s %5s %5s %5s %9s %9s %9s %9s\n",
		"clients", "requests", "ok", "cached", "coalesced", "shed", "4xx", "5xx", "p50(ms)", "p95(ms)", "p99(ms)", "qps")
	total5xx, totalHits := 0, 0
	for _, n := range levels {
		row := runLevel(*addr, reqs, n, *duration)
		total5xx += row.Err5xx
		totalHits += row.Cached + row.Coalesced
		fmt.Printf("%-8d %9d %7d %7d %9d %5d %5d %5d %9.2f %9.2f %9.2f %9.1f\n",
			row.Clients, row.Requests, row.OK, row.Cached, row.Coalesced, row.Shed,
			row.Err4xx, row.Err5xx, row.P50Ms, row.P95Ms, row.P99Ms, row.QPS)
	}
	if *wantHits && totalHits == 0 {
		fmt.Fprintln(os.Stderr, "dploadgen: FAIL: no cached or coalesced responses observed")
		os.Exit(1)
	}
	if *max5xx >= 0 && total5xx > *max5xx {
		fmt.Fprintf(os.Stderr, "dploadgen: FAIL: %d 5xx responses (gate %d)\n", total5xx, *max5xx)
		os.Exit(1)
	}
}

// buildMix expands the mix's problems and parameter spread into the
// pool of distinct requests the clients draw from.
func buildMix(noMemo bool) []serve.QueryRequest {
	var reqs []serve.QueryRequest
	for _, name := range mixProblems {
		p, err := problems.Get(name)
		if err != nil {
			panic(err) // mixProblems names builtins
		}
		// FixedParams problems bake their inputs into their kernels, so
		// they run at their default params only.
		vary := paramSpread
		if p.FixedParams {
			vary = 1
		}
		for k := 0; k < vary; k++ {
			params := append([]int64(nil), p.DefaultParams...)
			if k > 0 {
				params[0] += int64(k)
			}
			reqs = append(reqs, serve.QueryRequest{Problem: name, Params: params, NoResultCache: noMemo})
		}
	}
	for k := 0; k < paramSpread; k++ {
		reqs = append(reqs, serve.QueryRequest{Spec: triSpec, Params: []int64{int64(48 + k)}, NoResultCache: noMemo})
	}
	return reqs
}

// runLevel drives n closed-loop clients for d and aggregates.
func runLevel(addr string, reqs []serve.QueryRequest, n int, d time.Duration) levelRow {
	deadline := time.Now().Add(d)
	samples := make([][]sample, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(mixSeed + int64(c)*7919))
			client := &http.Client{Timeout: 2 * time.Minute}
			for time.Now().Before(deadline) {
				req := reqs[rng.Intn(len(reqs))]
				req.Tenant = fmt.Sprintf("tenant-%d", rng.Intn(mixTenants))
				s := issue(client, addr, &req)
				samples[c] = append(samples[c], s)
				if s.retryAfter > 0 {
					if wait := time.Until(deadline); wait < s.retryAfter {
						time.Sleep(wait)
					} else {
						time.Sleep(s.retryAfter)
					}
				}
			}
		}(c)
	}
	wg.Wait()

	row := levelRow{Clients: n}
	var all []int64
	for _, cs := range samples {
		for _, s := range cs {
			row.Requests++
			switch {
			case s.status == http.StatusOK:
				row.OK++
				if s.cached {
					row.Cached++
				}
				if s.coalesced {
					row.Coalesced++
				}
			case s.status == http.StatusTooManyRequests:
				row.Shed++
			case s.status >= 500:
				row.Err5xx++
			case s.status >= 400:
				row.Err4xx++
			}
			all = append(all, s.ns)
		}
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		row.P50Ms = pctMs(all, 50)
		row.P95Ms = pctMs(all, 95)
		row.P99Ms = pctMs(all, 99)
		row.QPS = float64(row.Requests) / d.Seconds()
	}
	return row
}

// issue sends one query and classifies the response.
func issue(client *http.Client, addr string, req *serve.QueryRequest) sample {
	data, _ := json.Marshal(req)
	t0 := time.Now()
	resp, err := client.Post(addr+"/v1/query", "application/json", bytes.NewReader(data))
	s := sample{ns: time.Since(t0).Nanoseconds()}
	if err != nil {
		s.status = 599 // transport failure counts as a 5xx
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	if resp.StatusCode == http.StatusOK {
		var qr serve.QueryResponse
		if json.NewDecoder(resp.Body).Decode(&qr) == nil {
			s.cached, s.coalesced = qr.Cached, qr.Coalesced
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		if s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable {
			s.retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		}
	}
	return s
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form —
// delay seconds or an HTTP-date — clamped to [0, maxRetryAfter].
// Absent or malformed headers yield zero (no backoff).
func parseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	var d time.Duration
	if secs, err := strconv.Atoi(v); err == nil {
		d = time.Duration(secs) * time.Second
	} else if at, err := http.ParseTime(v); err == nil {
		d = time.Until(at)
	}
	if d < 0 {
		d = 0
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// pctMs reads the p-th percentile (nearest-rank) of sorted ns samples
// in milliseconds.
func pctMs(sorted []int64, p int) float64 {
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return float64(sorted[idx]) / 1e6
}
