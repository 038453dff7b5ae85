package problems

import (
	"math"
	"reflect"
	"testing"

	"dpgen/internal/engine"
	"dpgen/internal/tiling"
	"dpgen/internal/workload"
)

// runBoth executes a problem on the hybrid runtime and serially, and
// requires bit-identical results.
func runBoth(t *testing.T, p *Problem, params []int64, cfg engine.Config) {
	t.Helper()
	tl, err := tiling.New(p.Spec)
	if err != nil {
		t.Fatalf("%s: tiling: %v", p.Spec.Name, err)
	}
	res, err := engine.Run(tl, p.Kernel, params, cfg)
	if err != nil {
		t.Fatalf("%s: run: %v", p.Spec.Name, err)
	}
	got := res.Value
	if p.UseMax {
		got = res.Max
	}
	want := p.Serial(params)
	if got != want {
		t.Fatalf("%s params %v: engine %v != serial %v", p.Spec.Name, params, got, want)
	}
}

func TestBandit2MatchesSerial(t *testing.T) {
	p := Bandit2()
	for _, N := range []int64{0, 1, 5, 21} {
		runBoth(t, p, []int64{N}, engine.Config{Nodes: 2, Threads: 2})
	}
}

func TestBandit2KnownValues(t *testing.T) {
	// Hand-checkable: N=1 with uniform priors gives expected success
	// probability 1/2 on the first pull.
	p := Bandit2()
	if got := p.Serial([]int64{1}); got != 0.5 {
		t.Errorf("V(0) at N=1 = %v, want 0.5", got)
	}
	// The value is monotone in N and below N.
	prev := 0.0
	for N := int64(1); N <= 8; N++ {
		v := p.Serial([]int64{N})
		if v <= prev || v >= float64(N) {
			t.Errorf("N=%d: value %v not in (%v, %d)", N, v, prev, N)
		}
		prev = v
	}
}

func TestBandit3MatchesSerial(t *testing.T) {
	p := Bandit3()
	for _, N := range []int64{0, 2, 9} {
		runBoth(t, p, []int64{N}, engine.Config{Nodes: 2, Threads: 2})
	}
}

func TestBandit3BeatsBandit2(t *testing.T) {
	// Three arms cannot be worse than two (more options).
	N := []int64{10}
	if b3, b2 := Bandit3().Serial(N), Bandit2().Serial(N); b3 < b2 {
		t.Errorf("bandit3 value %v below bandit2 %v", b3, b2)
	}
}

func TestBandit2DelayMatchesSerial(t *testing.T) {
	p := Bandit2Delay()
	for _, N := range []int64{0, 2, 7} {
		runBoth(t, p, []int64{N}, engine.Config{Nodes: 3, Threads: 2})
	}
}

func TestBandit2DelayBelowUndelayed(t *testing.T) {
	// Delayed observations can only lose value relative to the immediate-
	// feedback bandit at the same horizon.
	N := []int64{8}
	if d, u := Bandit2Delay().Serial(N), Bandit2().Serial(N); d > u+1e-12 {
		t.Errorf("delayed value %v exceeds undelayed %v", d, u)
	}
}

func TestEditDistanceMatchesSerial(t *testing.T) {
	p := EditDistance("ACGTACGT", "AGTTCGT", workload.SubUnit, 1)
	runBoth(t, p, p.DefaultParams, engine.Config{Nodes: 2, Threads: 2})
}

func TestEditDistanceKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 0},
		{"A", "", 1},
		{"", "ACG", 3},
		{"ACGT", "ACGT", 0},
		{"KITTEN", "SITTING", 3},
		{"AC", "CA", 2}, // unit-cost substitution, no transposition
	}
	for _, c := range cases {
		p := EditDistance(c.a, c.b, workload.SubUnit, 1)
		if got := p.Serial(p.DefaultParams); got != c.want {
			t.Errorf("edit(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLCS3MatchesSerial(t *testing.T) {
	p := LCS3("ACGTGCA", "AGGTCA", "ACTTCA")
	runBoth(t, p, p.DefaultParams, engine.Config{Nodes: 2, Threads: 2})
}

func TestLCS3KnownValues(t *testing.T) {
	cases := []struct {
		a, b, c string
		want    float64
	}{
		{"", "", "", 0},
		{"A", "A", "A", 1},
		{"ABC", "ABC", "ABC", 3},
		{"ABC", "BCA", "CAB", 1},
		{"ACGT", "TGCA", "GGCC", 1},
	}
	for _, c := range cases {
		p := LCS3(c.a, c.b, c.c)
		if got := p.Serial(p.DefaultParams); got != c.want {
			t.Errorf("lcs3(%q,%q,%q) = %v, want %v", c.a, c.b, c.c, got, c.want)
		}
	}
}

func TestMSA3MatchesSerial(t *testing.T) {
	p := MSA([]string{"ACGTGC", "AGGTC", "ACTTC"}, workload.SubUnit, 1, 8)
	runBoth(t, p, p.DefaultParams, engine.Config{Nodes: 2, Threads: 2})
}

func TestMSA3KnownValues(t *testing.T) {
	// Identical sequences align at zero cost.
	p := MSA([]string{"ACGT", "ACGT", "ACGT"}, workload.SubUnit, 1, 8)
	if got := p.Serial(p.DefaultParams); got != 0 {
		t.Errorf("identical MSA cost = %v, want 0", got)
	}
	// One empty sequence: each of the other characters pays one gap to
	// the empty sequence... both pairs with the empty sequence pay.
	p = MSA([]string{"AC", "AC", ""}, workload.SubUnit, 1, 8)
	if got := p.Serial(p.DefaultParams); got != 4 {
		t.Errorf("MSA with empty seq = %v, want 4", got)
	}
}

func TestMSA3ConsistentWithPairwise(t *testing.T) {
	// Sum-of-pairs MSA cost is at least the sum of optimal pairwise
	// distances (classical lower bound).
	a, b, c := workload.DNA(12, 1), workload.DNA(11, 2), workload.DNA(10, 3)
	msa := MSA([]string{a, b, c}, workload.SubUnit, 1, 8)
	got := msa.Serial(msa.DefaultParams)
	pair := func(x, y string) float64 {
		p := EditDistance(x, y, workload.SubUnit, 1)
		return p.Serial(p.DefaultParams)
	}
	lower := pair(a, b) + pair(a, c) + pair(b, c)
	if got < lower-1e-9 {
		t.Errorf("MSA cost %v below pairwise lower bound %v", got, lower)
	}
}

func TestRegistryAllRunnable(t *testing.T) {
	if testing.Short() {
		t.Skip("registry problems at default sizes are not short")
	}
	for _, name := range Names() {
		p, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Spec.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		params := p.DefaultParams
		// Shrink the heavy bandits for test time.
		if name == "bandit2" {
			params = []int64{18}
		}
		if name == "bandit3" || name == "bandit2delay" {
			params = []int64{8}
		}
		runBoth(t, p, params, engine.Config{Nodes: 2, Threads: 2})
	}
}

// Every builtin's values at DefaultParams, as bits: the serial
// reference and the engine's goal value and maximum at 1 node × 1
// thread. A builtin whose spec, kernel or reference moves must not move
// a cell, and these catch the cells the goal alone would hide.
func TestBuiltinValuesPinned(t *testing.T) {
	pins := []struct {
		name               string
		serial, value, max uint64
	}{
		{"bandit2", 0x4039726684365440, 0x4039726684365440, 0x403e45f71fec61a5},
		{"bandit3", 0x402aee81651c74a0, 0x402aee81651c74a0, 0x402c00896978a230},
		{"bandit2delay", 0x4023b513b3dd0ad6, 0x4023b513b3dd0ad6, 0x40256a6772eedf23},
		{"editdist", 0x4059400000000000, 0x4059400000000000, 0x4069000000000000},
		{"lcs2", 0x4067400000000000, 0x4067400000000000, 0x4067400000000000},
		{"lcs3", 0x4033000000000000, 0x4033000000000000, 0x4033000000000000},
		{"msa3", 0x4042800000000000, 0x4042800000000000, 0x404d000000000000},
		{"msa4", 0x4046800000000000, 0x4046800000000000, 0x404e800000000000},
		{"localalign", 0x4059c00000000000, 0x4055c00000000000, 0x4059c00000000000},
		{"mcm", 0x4099f40000000000, 0x4099f40000000000, 0x40ae0a0000000000},
		{"obst", 0x406e600000000000, 0x406e600000000000, 0x406e600000000000},
		{"knap", 0x4058800000000000, 0x4058800000000000, 0x4058800000000000},
	}
	if len(pins) != len(Names()) {
		t.Fatalf("%d pins for %d builtins", len(pins), len(Names()))
	}
	for _, pin := range pins {
		p, err := Get(pin.name)
		if err != nil {
			t.Fatal(err)
		}
		tl, err := tiling.New(p.Spec)
		if err != nil {
			t.Fatalf("%s: tiling: %v", pin.name, err)
		}
		res, err := engine.Run(tl, p.Kernel, p.DefaultParams, engine.Config{Nodes: 1, Threads: 1})
		if err != nil {
			t.Fatalf("%s: run: %v", pin.name, err)
		}
		serial := p.Serial(p.DefaultParams)
		if got := math.Float64bits(serial); got != pin.serial {
			t.Errorf("%s: serial %v (%#x), pinned %#x", pin.name, serial, got, pin.serial)
		}
		if got := math.Float64bits(res.Value); got != pin.value {
			t.Errorf("%s: engine value %v (%#x), pinned %#x", pin.name, res.Value, got, pin.value)
		}
		if got := math.Float64bits(res.Max); got != pin.max {
			t.Errorf("%s: engine max %v (%#x), pinned %#x", pin.name, res.Max, got, pin.max)
		}
	}
}

// Every registry name resolves, in Names' order, to the problem its
// constructor builds.
func TestGetBuildsItsConstructor(t *testing.T) {
	want := []struct {
		name  string
		build func() *Problem
	}{
		{"bandit2", Bandit2},
		{"bandit3", Bandit3},
		{"bandit2delay", Bandit2Delay},
		{"editdist", func() *Problem { return EditDistanceSeeded(1, 2) }},
		{"lcs2", func() *Problem { return LCS2Seeded(5) }},
		{"lcs3", func() *Problem { return LCS3Seeded(2) }},
		{"msa3", func() *Problem { return MSASeeded(3, 8, 24, 22, 20) }},
		{"msa4", func() *Problem { return MSASeeded(4, 6, 14, 13, 12, 11) }},
		{"localalign", func() *Problem { return SmithWatermanSeeded(6) }},
		{"mcm", MCM},
		{"obst", OBST},
		{"knap", Knapsack},
	}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %d names", names, len(want))
	}
	for i, w := range want {
		if names[i] != w.name {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], w.name)
		}
		got, err := Get(w.name)
		if err != nil {
			t.Fatal(err)
		}
		ref := w.build()
		if !reflect.DeepEqual(got.Spec, ref.Spec) || !reflect.DeepEqual(got.DefaultParams, ref.DefaultParams) ||
			got.FixedParams != ref.FixedParams || got.UseMax != ref.UseMax {
			t.Errorf("Get(%q) is not the problem its constructor builds (spec %q)", w.name, got.Spec.Name)
		}
	}
}

// Get builds only the problem asked for: knap costs its constructor's
// allocations plus a few for the lookup, not the whole registry's.
func TestGetAllocatesOneProblem(t *testing.T) {
	build := testing.AllocsPerRun(20, func() { Knapsack() })
	get := testing.AllocsPerRun(20, func() {
		if _, err := Get("knap"); err != nil {
			t.Fatal(err)
		}
	})
	if get > build+4 {
		t.Errorf("Get(\"knap\") allocates %.0f, Knapsack() %.0f", get, build)
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Error("unknown problem should error")
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	if workload.DNA(50, 7) != workload.DNA(50, 7) {
		t.Error("DNA not deterministic")
	}
	if workload.DNA(50, 7) == workload.DNA(50, 8) {
		t.Error("different seeds gave equal sequences")
	}
	for _, ch := range workload.DNA(200, 3) {
		switch ch {
		case 'A', 'C', 'G', 'T':
		default:
			t.Fatalf("bad nucleotide %q", ch)
		}
	}
}

func TestSubMatrices(t *testing.T) {
	if workload.SubUnit('A', 'A') != 0 || workload.SubUnit('A', 'C') != 1 {
		t.Error("SubUnit wrong")
	}
}

func TestSmithWatermanMatchesSerial(t *testing.T) {
	p := SmithWaterman("ACGTACGGTA", "GGTACGATT", ScoreMatch21, 2)
	tl, err := tiling.New(p.Spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(tl, p.Kernel, p.DefaultParams, engine.Config{Nodes: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Serial(p.DefaultParams); res.Max != want {
		t.Fatalf("engine max %v != serial %v", res.Max, want)
	}
}

func TestSmithWatermanFindsPlantedMotif(t *testing.T) {
	p := SmithWatermanSeeded(6)
	got := p.Serial(p.DefaultParams)
	// A planted 25-nt identical motif scores at least 2*25 minus noise
	// effects; anything big confirms local alignment found it.
	if got < 40 {
		t.Errorf("local alignment score %v; planted motif should score >= 40", got)
	}
}

func TestSmithWatermanKnown(t *testing.T) {
	// Identical strings: score = 2*len.
	p := SmithWaterman("ACGT", "ACGT", ScoreMatch21, 2)
	if got := p.Serial(p.DefaultParams); got != 8 {
		t.Errorf("identical local score %v, want 8", got)
	}
	// Disjoint alphabets: nothing aligns, score 0.
	p = SmithWaterman("AAAA", "TTTT", ScoreMatch21, 2)
	if got := p.Serial(p.DefaultParams); got != 0 {
		t.Errorf("disjoint local score %v, want 0", got)
	}
}

func TestLCS2MatchesSerial(t *testing.T) {
	p := LCS2("ACGTACGTGG", "CGTTACGG")
	runBoth(t, p, p.DefaultParams, engine.Config{Nodes: 2, Threads: 2})
}

func TestLCS2Known(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 0}, {"A", "A", 1}, {"ABCBDAB", "BDCABA", 4}, {"AGGTAB", "GXTXAYB", 4},
	}
	for _, c := range cases {
		p := LCS2(c.a, c.b)
		if got := p.Serial(p.DefaultParams); got != c.want {
			t.Errorf("lcs2(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLCS2ConsistentWithLCS3(t *testing.T) {
	// LCS of three strings is at most the LCS of any two.
	a, b, c := workload.DNA(20, 1), workload.DNA(18, 2), workload.DNA(16, 3)
	l3 := LCS3(a, b, c)
	l2 := LCS2(a, b)
	if l3.Serial(l3.DefaultParams) > l2.Serial(l2.DefaultParams) {
		t.Error("LCS3 exceeds LCS2 upper bound")
	}
}

func TestMSA4MatchesSerial(t *testing.T) {
	p := MSA([]string{"ACGTG", "AGGT", "ACTT", "CGT"}, workload.SubUnit, 1, 6)
	runBoth(t, p, p.DefaultParams, engine.Config{Nodes: 2, Threads: 2})
}

func TestMSA4Known(t *testing.T) {
	// Identical sequences align free.
	p := MSA([]string{"ACG", "ACG", "ACG", "ACG"}, workload.SubUnit, 1, 6)
	if got := p.Serial(p.DefaultParams); got != 0 {
		t.Errorf("identical MSA4 cost %v, want 0", got)
	}
}

func TestMSA4AtLeastMSA3(t *testing.T) {
	// Adding a fourth sequence cannot reduce the total sum-of-pairs cost
	// below the 3-sequence optimum over the shared pairs... a weaker but
	// always-true check: cost is at least the pairwise lower bound.
	a, b, c, d := workload.DNA(8, 1), workload.DNA(8, 2), workload.DNA(7, 3), workload.DNA(7, 4)
	m := MSA([]string{a, b, c, d}, workload.SubUnit, 1, 6)
	got := m.Serial(m.DefaultParams)
	var lower float64
	pairs := [][2]string{{a, b}, {a, c}, {a, d}, {b, c}, {b, d}, {c, d}}
	for _, pr := range pairs {
		e := EditDistance(pr[0], pr[1], workload.SubUnit, 1)
		lower += e.Serial(e.DefaultParams)
	}
	if got < lower-1e-9 {
		t.Errorf("MSA4 cost %v below pairwise bound %v", got, lower)
	}
}

func TestMCMMatchesSerial(t *testing.T) {
	p := MCM()
	for _, N := range []int64{1, 2, 3, 9, 20, 24} {
		runBoth(t, p, []int64{N}, engine.Config{Nodes: 2, Threads: 2})
	}
}

func TestMCMKnown(t *testing.T) {
	// Two matrices: one multiplication, p0*p1*p2 scalar products.
	p := MCM()
	want := mcmDim(0) * mcmDim(1) * mcmDim(2)
	if got := p.Serial([]int64{2}); got != want {
		t.Errorf("mcm N=2 = %v, want %v", got, want)
	}
	// One matrix: no multiplication.
	if got := p.Serial([]int64{1}); got != 0 {
		t.Errorf("mcm N=1 = %v, want 0", got)
	}
}

func TestOBSTMatchesSerial(t *testing.T) {
	p := OBST()
	for _, N := range []int64{1, 2, 5, 13, 18, 24} {
		runBoth(t, p, []int64{N}, engine.Config{Nodes: 2, Threads: 2})
	}
}

func TestOBSTKnown(t *testing.T) {
	p := OBST()
	// Single key: its own frequency at depth 1.
	if got, want := p.Serial([]int64{1}), obstFreq(0); got != want {
		t.Errorf("obst N=1 = %v, want %v", got, want)
	}
	// Two keys: the heavier key is the root.
	f0, f1 := obstFreq(0), obstFreq(1)
	want := f0 + f1 + f0 // root = key 1 (f1 > f0 for this workload)
	if f0 > f1 {
		want = f0 + f1 + f1
	}
	if got := p.Serial([]int64{2}); got != want {
		t.Errorf("obst N=2 = %v, want %v", got, want)
	}
}

func TestKnapsackMatchesSerial(t *testing.T) {
	p := Knapsack()
	for _, ps := range [][]int64{
		{10, 30, 3}, {10, 30, 1}, {5, 12, 4}, {1, 0, 2}, {7, 29, 2}, {12, 50, 4},
	} {
		runBoth(t, p, ps, engine.Config{Nodes: 2, Threads: 2})
	}
}

func TestKnapsackRejectsOutOfBoundParams(t *testing.T) {
	// The step distance W carries a declared bound; the runtime's ghost
	// shells only cover the declared hull, so W=5 must be rejected.
	p := Knapsack()
	tl, err := tiling.New(p.Spec)
	if err != nil {
		t.Fatalf("tiling: %v", err)
	}
	if _, err := engine.Run(tl, p.Kernel, []int64{10, 30, 5}, engine.Config{Nodes: 1, Threads: 1}); err == nil {
		t.Fatal("engine accepted W=5 outside the declared bound [1, 4]")
	}
}
