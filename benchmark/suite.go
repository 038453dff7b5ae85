package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// A suite run executes every pass of every workload in a child process
// of its own — floor and system in the same child — so the heap, memo
// and goroutines one workload leaves behind cannot perturb the next.

// report is what a suite run writes with -out and -compare reads.
type report struct {
	Host      hostInfo         `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Quick     bool             `json:"quick"`
	Workloads []workloadReport `json:"workloads"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

type workloadReport struct {
	Name string `json:"name"`
	// EndToEnd summarises each gated metric over the timed runs' values,
	// one value per run, each run on its own seed — the way the
	// acceptance check measures spread.
	EndToEnd  map[string]summary `json:"end_to_end"`
	FailShare float64            `json:"fail_share"`
	Runs      []*result          `json:"runs"`
	Traced    *result            `json:"traced"`
}

// host describes where a report was measured. The commit is asked of
// git, best effort: a checkout without history reports "unknown".
func host(root string) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if rev, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(rev))
	}
	return h
}

func runSuite(list string, seed uint64, seconds float64, runs int, quick bool, out, traceOut string) error {
	names := splitList(list)
	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		if findWorkload(name) == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	root, dir, err := scratchDir("suite-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	child := func(name string, seed uint64, traced bool) (*result, error) {
		detail := filepath.Join(dir, "detail.json")
		args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", detail}
		if quick {
			args = append(args, "-quick")
		}
		if traced {
			args = append(args, "-trace", "1")
			if traceOut != "" {
				args = append(args, "-trace-out", strings.TrimSuffix(traceOut, ".json")+"."+name+".json")
			}
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		data, err := os.ReadFile(detail)
		if err != nil {
			return nil, err
		}
		res := new(result)
		return res, json.Unmarshal(data, res)
	}

	rep := report{Host: host(root), Seed: seed, Seconds: seconds, Quick: quick}
	for _, name := range names {
		wr := workloadReport{Name: name, EndToEnd: map[string]summary{}}
		perRun := map[string][]float64{}
		var attempted, failed int
		for r := 0; r < runs; r++ {
			res, err := child(name, seed+uint64(r), false)
			if err != nil {
				return err
			}
			wr.Runs = append(wr.Runs, res)
			attempted += res.Attempted
			failed += res.Failed
			for _, m := range endToEnd {
				perRun[m.name] = append(perRun[m.name], res.EndToEnd[m.name].Median)
			}
		}
		for _, m := range endToEnd {
			wr.EndToEnd[m.name] = summarize(perRun[m.name])
		}
		wr.FailShare = float64(failed) / float64(attempted)
		if wr.Traced, err = child(name, seed, true); err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, wr)
	}

	fmt.Printf("\nnproc %d  GOMAXPROCS %d  %s  commit %s  seed %d  %d timed run(s) of %gs per workload\n",
		rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.Commit, seed, runs, seconds)
	fmt.Printf("%-18s %-11s %12s %12s %12s %4s\n", "workload", "metric", "median", "q1", "q3", "n")
	for _, wr := range rep.Workloads {
		for _, m := range endToEnd {
			s := wr.EndToEnd[m.name]
			fmt.Printf("%-18s %-11s %12.6g %12.6g %12.6g %4d %s\n", wr.Name, m.name, s.Median, s.Q1, s.Q3, s.N, m.unit)
		}
		fmt.Printf("%-18s %-11s %12.6g\n", wr.Name, "fail_share", wr.FailShare)
	}
	if out != "" {
		return writeJSON(out, rep)
	}
	return nil
}
