package loopgen

import (
	"math/rand"
	"testing"

	"dpgen/internal/fm"
	"dpgen/internal/lin"
)

// banditSys builds the 2-arm bandit iteration space over (N | vars).
func banditSys(t testing.TB) (*lin.Space, *lin.System) {
	t.Helper()
	s := lin.MustSpace([]string{"N"}, []string{"s1", "f1", "s2", "f2"})
	sys := lin.NewSystem(s)
	sum := lin.Var(s, "s1").Add(lin.Var(s, "f1")).Add(lin.Var(s, "s2")).Add(lin.Var(s, "f2"))
	sys.AddLE(sum, lin.Var(s, "N"))
	for _, v := range s.Vars() {
		sys.AddGE(lin.Var(s, v), lin.Zero(s))
	}
	return s, sys
}

// choose4 computes C(n+4, 4), the simplex point count.
func choose4(n int64) int64 { return (n + 1) * (n + 2) * (n + 3) * (n + 4) / 24 }

func TestBuildBandit(t *testing.T) {
	s, sys := banditSys(t)
	n, err := Build(sys, s.Vars(), fm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Levels) != 4 {
		t.Fatalf("levels = %d", len(n.Levels))
	}
	// Innermost level f2: 0 <= f2 <= N - s1 - f1 - s2 (Fig 1 of the paper).
	lvl := n.Levels[3]
	if lvl.Var != "f2" || len(lvl.Lower) != 1 || len(lvl.Upper) != 1 {
		t.Fatalf("innermost level wrong: %+v", lvl)
	}
	up := lvl.Upper[0]
	if up.Div != 1 || up.Num.Coeff("N") != 1 || up.Num.Coeff("s1") != -1 ||
		up.Num.Coeff("f1") != -1 || up.Num.Coeff("s2") != -1 {
		t.Errorf("upper bound of f2 wrong: %v", up)
	}
}

func TestCountBandit(t *testing.T) {
	s, sys := banditSys(t)
	n, err := Build(sys, s.Vars(), fm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, N := range []int64{0, 1, 2, 5, 10, 30} {
		if got, want := n.Count([]int64{N}), choose4(N); got != want {
			t.Errorf("Count(N=%d) = %d, want %d", N, got, want)
		}
	}
}

func TestEnumerateMatchesCount(t *testing.T) {
	s, sys := banditSys(t)
	n, err := Build(sys, s.Vars(), fm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var seen int64
	n.Enumerate([]int64{6}, func(vals []int64) bool {
		if !sys.Contains(vals) {
			t.Fatalf("enumerated point %v outside system", vals)
		}
		seen++
		return true
	})
	if want := choose4(6); seen != want {
		t.Errorf("enumerated %d points, want %d", seen, want)
	}
	_ = s
}

func TestEnumerateEarlyStop(t *testing.T) {
	s := lin.MustSpace(nil, []string{"x"})
	sys := lin.NewSystem(s)
	sys.AddGE(lin.Var(s, "x"), lin.Zero(s))
	sys.AddLE(lin.Var(s, "x"), lin.Const(s, 100))
	n, err := Build(sys, []string{"x"}, fm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	n.Enumerate(nil, func([]int64) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Errorf("early stop visited %d points, want 5", seen)
	}
}

func TestBuildUnbounded(t *testing.T) {
	s := lin.MustSpace(nil, []string{"x"})
	sys := lin.NewSystem(s)
	sys.AddGE(lin.Var(s, "x"), lin.Zero(s)) // no upper bound
	if _, err := Build(sys, []string{"x"}, fm.Options{}); err == nil {
		t.Error("unbounded variable should fail")
	}
}

func TestBuildOrderValidation(t *testing.T) {
	s, sys := banditSys(t)
	if _, err := Build(sys, []string{"s1", "f1", "s2"}, fm.Options{}); err == nil {
		t.Error("short order should fail")
	}
	if _, err := Build(sys, []string{"s1", "f1", "s2", "N"}, fm.Options{}); err == nil {
		t.Error("param in order should fail")
	}
	if _, err := Build(sys, []string{"s1", "f1", "s2", "s2"}, fm.Options{}); err == nil {
		t.Error("duplicate in order should fail")
	}
	_ = s
}

func TestResidualParamsGate(t *testing.T) {
	// Space requires N >= 3 via x: 3 <= x <= N.
	s := lin.MustSpace([]string{"N"}, []string{"x"})
	sys := lin.NewSystem(s)
	sys.AddGE(lin.Var(s, "x"), lin.Const(s, 3))
	sys.AddLE(lin.Var(s, "x"), lin.Var(s, "N"))
	n, err := Build(sys, []string{"x"}, fm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Count([]int64{2}); got != 0 {
		t.Errorf("Count(N=2) = %d, want 0", got)
	}
	if got := n.Count([]int64{5}); got != 3 {
		t.Errorf("Count(N=5) = %d, want 3", got)
	}
}

func TestDivisorBounds(t *testing.T) {
	// 0 <= 2x <= N: x in [0, floor(N/2)] -> count floor(N/2)+1.
	s := lin.MustSpace([]string{"N"}, []string{"x"})
	sys := lin.NewSystem(s)
	sys.AddGE(lin.Var(s, "x"), lin.Zero(s))
	sys.AddLE(lin.Term(s, 2, "x"), lin.Var(s, "N"))
	n, err := Build(sys, []string{"x"}, fm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for N := int64(0); N <= 9; N++ {
		if got, want := n.Count([]int64{N}), N/2+1; got != want {
			t.Errorf("Count(N=%d) = %d, want %d", N, got, want)
		}
	}
	divs := n.Divisors()
	has2 := false
	for _, d := range divs {
		if d == 2 {
			has2 = true
		}
	}
	if !has2 {
		t.Errorf("Divisors = %v, want to include 2", divs)
	}
}

// Property: Count agrees with brute-force enumeration on random bounded
// 2-D systems, for every loop order.
func TestCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := lin.MustSpace(nil, []string{"x", "y"})
	for trial := 0; trial < 40; trial++ {
		sys := lin.NewSystem(s)
		for i := 0; i < 3; i++ {
			e := lin.Const(s, int64(rng.Intn(13)))
			e = e.Add(lin.Term(s, int64(rng.Intn(5)-2), "x"))
			e = e.Add(lin.Term(s, int64(rng.Intn(5)-2), "y"))
			sys.Ineqs = append(sys.Ineqs, lin.Ineq{Expr: e})
		}
		for _, v := range s.Vars() {
			sys.AddGE(lin.Var(s, v), lin.Const(s, -4))
			sys.AddLE(lin.Var(s, v), lin.Const(s, 4))
		}
		var brute int64
		for x := int64(-4); x <= 4; x++ {
			for y := int64(-4); y <= 4; y++ {
				if sys.Contains([]int64{x, y}) {
					brute++
				}
			}
		}
		for _, order := range [][]string{{"x", "y"}, {"y", "x"}} {
			n, err := Build(sys, order, fm.Options{Prune: fm.PruneSimplex})
			if err == fm.ErrInfeasible {
				if brute != 0 {
					t.Fatalf("trial %d: infeasible but brute=%d", trial, brute)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := n.Count(nil); got != brute {
				t.Fatalf("trial %d order %v: Count=%d brute=%d\nsys=%v\nnest:\n%s",
					trial, order, got, brute, sys, n)
			}
		}
	}
}

func TestStringRendersNest(t *testing.T) {
	s, sys := banditSys(t)
	n, err := Build(sys, s.Vars(), fm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := n.String()
	for _, want := range []string{"for s1 from", "for f2 from", "{body}"} {
		if !contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestEnumerateDir(t *testing.T) {
	s := lin.MustSpace(nil, []string{"x", "y"})
	sys := lin.NewSystem(s)
	sys.AddGE(lin.Var(s, "x"), lin.Zero(s))
	sys.AddLE(lin.Var(s, "x"), lin.Const(s, 1))
	sys.AddGE(lin.Var(s, "y"), lin.Zero(s))
	sys.AddLE(lin.Var(s, "y"), lin.Const(s, 1))
	n, err := Build(sys, []string{"x", "y"}, fm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got [][2]int64
	n.EnumerateDir(nil, []int{-1, 1}, func(vals []int64) bool {
		got = append(got, [2]int64{vals[0], vals[1]})
		return true
	})
	want := [][2]int64{{1, 0}, {1, 1}, {0, 0}, {0, 1}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	// Mismatched dirs length panics.
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong dirs length")
		}
	}()
	n.EnumerateDir(nil, []int{1}, func([]int64) bool { return true })
}

func TestNestSpaceAccessor(t *testing.T) {
	s, sys := banditSys(t)
	n, err := Build(sys, s.Vars(), fm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !n.Space().Equal(s) {
		t.Error("Nest.Space does not round-trip")
	}
}
