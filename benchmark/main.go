// Command benchmark is the repository's one benchmark: six workloads,
// each timed against a hand-written serial floor in the same round,
// every answer verified bit for bit, plus a separate traced pass for
// per-layer numbers. README.md explains the metrics; BENCHMARK.json at
// the repository root is the contract.
//
//	go run -C benchmark . -workload lcs2-interior -seed 1 -seconds 8 -trace 0
//	go run -C benchmark . -out report.json [-workloads a,b] [-quick]
//	go run -C benchmark . -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		one       = flag.String("workload", "", "run this one workload in this process and print the result line")
		list      = flag.String("workloads", "", "comma-separated workloads for a suite run (default all), each in a child process")
		seed      = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", 8, "how long each pass measures")
		trace     = flag.Int("trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		out       = flag.String("out", "", "write the report (suite) or this run's detail (-workload) as JSON")
		traceOut  = flag.String("trace-out", "", "write the traced pass's spans as Chrome trace JSON")
		runs      = flag.Int("runs", 1, "timed runs per workload in a suite run, on seeds seed, seed+1, ...; -compare needs several to see spread")
		quick     = flag.Bool("quick", false, "one round at reduced size: a smoke test, not a measurement")
		doCompare = flag.Bool("compare", false, "compare two suite reports: -compare A.json B.json")
	)
	flag.Parse()
	// Two threads in total on any host; the runtime would otherwise size
	// its own pools from the machine.
	runtime.GOMAXPROCS(threads)

	var err error
	switch {
	case *doCompare:
		err = compare(os.Stdout, flag.Args())
	case *one != "":
		err = runOne(*one, *seed, *seconds, *trace != 0, *quick, *out, *traceOut)
	default:
		err = runSuite(*list, *seed, *seconds, *runs, *quick, *out, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// findRoot returns the nearest directory at or above the working
// directory that holds the repository's spec files: the benchmark is run
// from the checkout root or from its own directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "specs", "bandit2.dps")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no specs/bandit2.dps at or above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// scratchDir finds the checkout root and makes a fresh directory under
// its .bench_build, the one place the benchmark writes; the caller
// removes it.
func scratchDir(prefix string) (root, dir string, err error) {
	if root, err = findRoot(); err != nil {
		return "", "", err
	}
	build := filepath.Join(root, ".bench_build")
	if err = os.MkdirAll(build, 0o755); err != nil {
		return "", "", err
	}
	dir, err = os.MkdirTemp(build, prefix)
	return root, dir, err
}

// runOne runs one pass of one workload in this process and prints the
// contract's result line last.
func runOne(name string, seed uint64, seconds float64, traced, quick bool, out, traceOut string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	root, scratch, err := scratchDir("run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	env := &environment{root: root, scratch: scratch, seed: seed, quick: quick}

	var res *result
	if traced {
		sp := newSpans(name)
		if res, err = runTraced(w, env, seconds, sp); err == nil && traceOut != "" {
			err = writeFile(traceOut, sp.writeChrome)
		}
	} else {
		res, err = runTimed(w, env, seconds)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	printResult(res)
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	return printContractLine(res)
}

// printResult prints every metric of a run by name, with its unit.
func printResult(res *result) {
	pass := "timed"
	if res.Traced {
		pass = "traced"
	}
	fmt.Printf("%s  %s pass  seed %d  %d rounds  %d/%d answers bit-identical to the floor\n",
		res.Workload, pass, res.Seed, res.Rounds, res.Attempted-res.Failed, res.Attempted)
	for _, m := range endToEnd {
		if s, ok := res.EndToEnd[m.name]; ok {
			fmt.Printf("  %-22s %12.6g %-8s q1 %.6g  q3 %.6g  n %d\n", m.name, s.Median, m.unit, s.Q1, s.Q3, s.N)
		}
	}
	if !res.Traced {
		fmt.Printf("  %-22s %12.6g\n", "fail_share", res.FailShare)
	}
	for _, m := range perLayer {
		if v, ok := res.PerLayer[m.name]; ok {
			fmt.Printf("  %-22s %12.6g %s\n", m.name, v, m.unit)
		}
	}
	names := make([]string, 0, len(res.Extra))
	for name := range res.Extra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-22s %12.6g (not gated)\n", name, res.Extra[name])
	}
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContractLine prints the one JSON object the driver reads.
func printContractLine(res *result) error {
	metrics := map[string]contractMetric{}
	if res.Traced {
		for _, m := range perLayer {
			metrics[m.name] = contractMetric{res.PerLayer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = contractMetric{res.EndToEnd[m.name].Median, m.unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Correct && res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	return writeFile(path, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
