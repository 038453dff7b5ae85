package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []contractMetricDef `json:"end_to_end"`
	PerLayer   []contractMetricDef `json:"per_layer"`
}

type contractMetricDef struct {
	Name, Unit, Better string
	Bound              float64
}

func readContract(t *testing.T) (contract, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c, root
}

// TestContractMatchesCatalog keeps BENCHMARK.json and the code's catalog
// of workloads, metrics, units and bounds in step.
func TestContractMatchesCatalog(t *testing.T) {
	c, _ := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalog %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the catalog %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []contractMetricDef, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || (bounded && (g.Bound != m.bound || g.Better != "lower")) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the catalog %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", c.Paths)
	}
}

// TestQuickEmitsEveryMetric runs both passes of every workload once at
// reduced size and asserts that every metric BENCHMARK.json names is
// emitted and every answer verifies. It asserts nothing about time.
func TestQuickEmitsEveryMetric(t *testing.T) {
	c, _ := readContract(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			root, scratch, err := scratchDir("test-")
			if err != nil {
				t.Fatal(err)
			}
			defer os.RemoveAll(scratch)
			env := &environment{root: root, scratch: scratch, seed: 7, quick: true}

			timed, err := runTimed(w, env, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !timed.Correct || timed.Failed != 0 || timed.Attempted < 1 {
				t.Errorf("timed pass: correct %v, %d of %d failed", timed.Correct, timed.Failed, timed.Attempted)
			}
			for _, m := range c.EndToEnd {
				if s, ok := timed.EndToEnd[m.Name]; !ok || !(s.Median > 0) {
					t.Errorf("timed pass: %s = %v (emitted %v), want a positive value", m.Name, s.Median, ok)
				}
			}

			traced, err := runTraced(w, env, 0, newSpans(w.name))
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct || traced.Failed != 0 || traced.Attempted < 1 {
				t.Errorf("traced pass: correct %v, %d of %d failed", traced.Correct, traced.Failed, traced.Attempted)
			}
			for _, m := range c.PerLayer {
				if _, ok := traced.PerLayer[m.Name]; !ok {
					t.Errorf("traced pass: %s not emitted", m.Name)
				}
			}
			// Durations are measured on every workload, never filled in.
			for _, name := range []string{"floor_ms", "solve_ms", "parse_ms", "analyze_ms", "prepare_ms", "run_ms", "cells"} {
				if !(traced.PerLayer[name] > 0) {
					t.Errorf("traced pass: %s = %v, want a positive value", name, traced.PerLayer[name])
				}
			}
		})
	}
}
