package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"dpgen/internal/problems"
	"dpgen/internal/serve"
	inputs "dpgen/internal/workload"
)

// The floors are the divisor of every overhead_x, so each is pinned bit
// for bit to a reference the repo already trusts: the builtin's own
// Serial solver, or — for the served triangle, which has no builtin — a
// query against a real server. Small sizes, no clocks.

func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: floor %v (%#x), reference %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestFloorLCS(t *testing.T) {
	for _, c := range []struct {
		la, lb int
		seed   uint64
	}{{1, 1, 1}, {7, 3, 2}, {40, 40, 3}, {33, 90, 4}, {120, 64, 5}} {
		a, b := inputs.DNA(c.la, c.seed), inputs.DNA(c.lb, c.seed+1)
		want := problems.LCS2(a, b).Serial([]int64{int64(c.la), int64(c.lb)})
		// Dirty buffers: the floor must not depend on what the last call left.
		cur, next := make([]float64, c.lb+1), make([]float64, c.lb+1)
		for i := range cur {
			cur[i], next[i] = 99, -7
		}
		sameBits(t, "lcs "+a+" "+b, floorLCS(a, b, cur, next), want)
	}
}

func TestFloorBandit2(t *testing.T) {
	serial := problems.Bandit2().Serial
	for _, N := range []int64{0, 1, 2, 3, 7, 12, 25} {
		row := (N + 2) * (N + 2) * (N + 2)
		cur, next := make([]float64, row), make([]float64, row)
		for i := range cur {
			cur[i], next[i] = 99, -7
		}
		sameBits(t, "bandit2", floorBandit2(N, cur, next), serial([]int64{N}))
	}
}

func TestFloorKnap(t *testing.T) {
	serial := problems.Knapsack().Serial
	for _, p := range [][]int64{{1, 0, 1}, {1, 10, 3}, {5, 7, 2}, {10, 30, 3}, {40, 97, 4}, {25, 60, 1}} {
		cur, next := make([]float64, p[1]+1), make([]float64, p[1]+1)
		for i := range cur {
			cur[i], next[i] = 99, -7
		}
		sameBits(t, "knap", floorKnap(p[0], p[1], p[2], cur, next), serial(p))
	}
}

func TestFloorTriangleLongest(t *testing.T) {
	h, err := serve.New(serve.Options{}).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for _, N := range []int64{0, 1, 5, 37, 64} {
		body, err := json.Marshal(serve.QueryRequest{Spec: triangleSpec("tri"), Kernel: "longest", Params: []int64{N}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+h.Addr()+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var r serve.QueryResponse
		err = json.NewDecoder(resp.Body).Decode(&r)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("N=%d: HTTP %d, %v", N, resp.StatusCode, err)
		}
		cur, next := make([]float64, N+2), make([]float64, N+2)
		for i := range cur {
			cur[i], next[i] = 99, -7
		}
		sameBits(t, "triangle", floorTriangleLongest(N, cur, next), r.Value)
	}
}
