package lin

import (
	"strings"
	"testing"
	"testing/quick"
)

func banditSpace(t testing.TB) *Space {
	t.Helper()
	s, err := NewSpace([]string{"N"}, []string{"s1", "f1", "s2", "f2"})
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	return s
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace([]string{"N"}, []string{"N"}); err == nil {
		t.Error("duplicate name across params/vars should fail")
	}
	if _, err := NewSpace(nil, []string{"x", "x"}); err == nil {
		t.Error("duplicate var should fail")
	}
	if _, err := NewSpace(nil, []string{""}); err == nil {
		t.Error("empty name should fail")
	}
}

func TestSpaceAccessors(t *testing.T) {
	s := banditSpace(t)
	if s.N() != 5 || s.NumParams() != 1 || s.NumVars() != 4 {
		t.Fatalf("sizes wrong: N=%d params=%d vars=%d", s.N(), s.NumParams(), s.NumVars())
	}
	if s.Index("s2") != 3 || s.Index("nope") != -1 {
		t.Error("Index wrong")
	}
	if !s.IsParam(0) || s.IsParam(1) {
		t.Error("IsParam wrong")
	}
	if got := s.Vars(); len(got) != 4 || got[0] != "s1" {
		t.Errorf("Vars = %v", got)
	}
}

func TestExtendVars(t *testing.T) {
	s := banditSpace(t)
	s2, err := s.ExtendVars("t1", "i1")
	if err != nil {
		t.Fatal(err)
	}
	if s2.N() != 7 || s2.NumParams() != 1 {
		t.Fatalf("extended space wrong: %v", s2)
	}
	// Lifting preserves coefficients by name.
	e := Var(s, "s1").Add(Term(s, 3, "N")).AddConst(7)
	le := e.Lift(s2)
	if le.Coeff("s1") != 1 || le.Coeff("N") != 3 || le.K != 7 || le.Coeff("t1") != 0 {
		t.Errorf("Lift wrong: %v", le)
	}
}

func TestWithParams(t *testing.T) {
	s := banditSpace(t)
	s2, err := s.WithParams([]string{"N", "s1", "f1"})
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumParams() != 3 || s2.NumVars() != 2 {
		t.Fatalf("WithParams wrong: %v", s2)
	}
	if s2.Index("s2") != 3 {
		t.Errorf("reordered index wrong: %d", s2.Index("s2"))
	}
	if _, err := s.WithParams([]string{"zz"}); err == nil {
		t.Error("unknown param should fail")
	}
}

func TestExprArithmetic(t *testing.T) {
	s := banditSpace(t)
	// e = 2*s1 - f1 + 5
	e := Term(s, 2, "s1").Sub(Var(s, "f1")).AddConst(5)
	if e.Coeff("s1") != 2 || e.Coeff("f1") != -1 || e.K != 5 {
		t.Fatalf("build wrong: %v", e)
	}
	// N=10, s1=3, f1=1, s2=0, f2=0 -> 2*3 - 1 + 5 = 10
	if got := e.Eval([]int64{10, 3, 1, 0, 0}); got != 10 {
		t.Errorf("Eval = %d, want 10", got)
	}
	neg := e.Neg()
	if neg.Coeff("s1") != -2 || neg.K != -5 {
		t.Errorf("Neg wrong: %v", neg)
	}
	sc := e.Scale(3)
	if sc.Coeff("s1") != 6 || sc.K != 15 {
		t.Errorf("Scale wrong: %v", sc)
	}
}

func TestExprSubst(t *testing.T) {
	s := MustSpace([]string{"N"}, []string{"x", "i", "t"})
	// x := i + 4*t  applied to  e = 2*x + N - 1
	e := Term(s, 2, "x").Add(Var(s, "N")).AddConst(-1)
	rep := Var(s, "i").Add(Term(s, 4, "t"))
	got := e.Subst("x", rep)
	if got.Coeff("x") != 0 || got.Coeff("i") != 2 || got.Coeff("t") != 8 ||
		got.Coeff("N") != 1 || got.K != -1 {
		t.Errorf("Subst wrong: %v", got)
	}
	// Substituting an uninvolved name is a no-op.
	e2 := Var(s, "N")
	if !e2.Subst("x", rep).Equal(e2) {
		t.Error("Subst of absent name changed expr")
	}
}

func TestExprString(t *testing.T) {
	s := banditSpace(t)
	e := Term(s, 2, "s1").Sub(Var(s, "f1")).AddConst(-3)
	if got := e.String(); got != "2*s1 - f1 - 3" {
		t.Errorf("String = %q", got)
	}
	if got := Const(s, 0).String(); got != "0" {
		t.Errorf("zero String = %q", got)
	}
	if got := Var(s, "N").Neg().String(); got != "-N" {
		t.Errorf("String = %q", got)
	}
}

func TestIneqTighten(t *testing.T) {
	s := MustSpace(nil, []string{"x"})
	// 2x + 3 >= 0  ==>  x + 1 >= 0  (floor(3/2) = 1)
	q := Ineq{Term(s, 2, "x").AddConst(3)}.Tighten()
	if q.Coeff("x") != 1 || q.K != 1 {
		t.Errorf("Tighten wrong: %v", q)
	}
	// -2x + 3 >= 0  ==>  -x + 1 >= 0
	q2 := Ineq{Term(s, -2, "x").AddConst(3)}.Tighten()
	if q2.Coeff("x") != -1 || q2.K != 1 {
		t.Errorf("Tighten wrong: %v", q2)
	}
	// constant stays
	q3 := Ineq{Const(s, -5)}
	if !q3.Tighten().IsContradiction() {
		t.Error("constant contradiction lost")
	}
}

// Property: tightening never changes the integer solution set (checked on
// single-variable inequalities over a sampled range).
func TestTightenPreservesIntegerSolutions(t *testing.T) {
	s := MustSpace(nil, []string{"x"})
	f := func(a int8, k int16) bool {
		if a == 0 {
			return true
		}
		q := Ineq{Term(s, int64(a), "x").AddConst(int64(k))}
		tq := q.Tighten()
		for x := int64(-100); x <= 100; x++ {
			if q.Holds([]int64{x}) != tq.Holds([]int64{x}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSystemBanditContains(t *testing.T) {
	s := banditSpace(t)
	sys := banditSystem(s)
	if !sys.Contains([]int64{10, 3, 2, 1, 0}) {
		t.Error("interior point rejected")
	}
	if !sys.Contains([]int64{10, 10, 0, 0, 0}) {
		t.Error("boundary point rejected")
	}
	if sys.Contains([]int64{10, 11, 0, 0, 0}) {
		t.Error("outside point accepted (sum > N)")
	}
	if sys.Contains([]int64{10, -1, 0, 0, 0}) {
		t.Error("negative point accepted")
	}
}

// banditSystem builds the 2-arm bandit iteration space of Section II:
// s1+f1+s2+f2 <= N, all vars >= 0.
func banditSystem(s *Space) *System {
	sum := Var(s, "s1").Add(Var(s, "f1")).Add(Var(s, "s2")).Add(Var(s, "f2"))
	sys := NewSystem(s)
	sys.AddLE(sum, Var(s, "N"))
	for _, v := range []string{"s1", "f1", "s2", "f2"} {
		sys.AddGE(Var(s, v), Zero(s))
	}
	return sys
}

func TestSystemDedup(t *testing.T) {
	s := MustSpace(nil, []string{"x"})
	sys := NewSystem(s)
	sys.AddGE(Var(s, "x"), Zero(s))
	sys.AddGE(Var(s, "x"), Zero(s))
	sys.AddGE(Term(s, 2, "x"), Zero(s)) // tightens to same as above
	sys.Add(Ineq{Const(s, 5)})          // tautology, dropped at Add
	if c := sys.Dedup(); c {
		t.Error("unexpected contradiction")
	}
	if len(sys.Ineqs) != 1 {
		t.Errorf("Dedup left %d ineqs, want 1: %v", len(sys.Ineqs), sys)
	}
	sys.Add(Ineq{Const(s, -1)})
	if c := sys.Dedup(); !c {
		t.Error("contradiction not detected")
	}
}

func TestSystemSubstAndProject(t *testing.T) {
	s := MustSpace([]string{"N"}, []string{"x", "i", "t"})
	sys := NewSystem(s)
	sys.AddLE(Var(s, "x"), Var(s, "N"))
	sys.AddGE(Var(s, "x"), Zero(s))
	sub := sys.Subst("x", Var(s, "i").Add(Term(s, 4, "t")))
	if sub.InvolvedIn("x") {
		t.Error("x still involved after Subst")
	}
	small := MustSpace([]string{"N"}, []string{"i", "t"})
	proj, err := sub.Project(small)
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if proj.Space().N() != 3 {
		t.Errorf("projected space wrong: %v", proj.Space())
	}
	if _, err := sys.Project(small); err == nil {
		t.Error("Project with live name should fail")
	}
}

func TestSystemString(t *testing.T) {
	s := MustSpace(nil, []string{"x", "y"})
	sys := NewSystem(s)
	sys.AddGE(Var(s, "x"), Zero(s))
	sys.AddLE(Var(s, "y"), Const(s, 3))
	got := sys.String()
	if !strings.Contains(got, "x >= 0") || !strings.Contains(got, "-y + 3 >= 0") {
		t.Errorf("String = %q", got)
	}
}

func TestLiftProjectRoundTrip(t *testing.T) {
	small := MustSpace([]string{"N"}, []string{"x"})
	big, _ := small.ExtendVars("y", "z")
	e := Term(small, 3, "x").Add(Var(small, "N")).AddConst(-2)
	back, err := e.Lift(big).Project(small)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(e) {
		t.Errorf("round trip changed expr: %v vs %v", back, e)
	}
}

func TestSystemCloneIndependence(t *testing.T) {
	s := MustSpace(nil, []string{"x"})
	sys := NewSystem(s)
	sys.AddGE(Var(s, "x"), Zero(s))
	cl := sys.Clone()
	cl.AddLE(Var(s, "x"), Const(s, 5))
	if len(sys.Ineqs) != 1 || len(cl.Ineqs) != 2 {
		t.Errorf("clone not independent: %d vs %d", len(sys.Ineqs), len(cl.Ineqs))
	}
	cl.Ineqs[0].Coef[0] = 99
	if sys.Ineqs[0].Coef[0] == 99 {
		t.Error("clone shares coefficient storage")
	}
}

func TestSystemLiftAndAddEq(t *testing.T) {
	small := MustSpace([]string{"N"}, []string{"x"})
	sys := NewSystem(small)
	sys.AddEq(Var(small, "x"), Const(small, 3))
	if len(sys.Ineqs) != 2 {
		t.Fatalf("AddEq gave %d ineqs", len(sys.Ineqs))
	}
	if !sys.Contains([]int64{9, 3}) || sys.Contains([]int64{9, 4}) {
		t.Error("equality semantics wrong")
	}
	big, _ := small.ExtendVars("y")
	lifted := sys.Lift(big)
	if !lifted.Contains([]int64{9, 3, 77}) {
		t.Error("lifted system rejects valid point")
	}
}

func TestSpaceAccessorCopies(t *testing.T) {
	s := MustSpace([]string{"N"}, []string{"x", "y"})
	names := s.Names()
	names[0] = "corrupted"
	if s.Name(0) != "N" {
		t.Error("Names() aliases internal storage")
	}
	ps := s.Params()
	ps[0] = "zz"
	if s.Name(0) != "N" {
		t.Error("Params() aliases internal storage")
	}
	if s.NumVars() != 2 {
		t.Error("NumVars wrong")
	}
}

func TestSpaceEqual(t *testing.T) {
	a := MustSpace([]string{"N"}, []string{"x"})
	b := MustSpace([]string{"N"}, []string{"x"})
	c := MustSpace([]string{"N"}, []string{"y"})
	d := MustSpace(nil, []string{"N", "x"})
	if !a.Equal(b) || !a.Equal(a) {
		t.Error("equal spaces not Equal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("different spaces Equal")
	}
}

func TestExprEqualAndCoeffAt(t *testing.T) {
	s := MustSpace(nil, []string{"x", "y"})
	a := Term(s, 2, "x").AddConst(1)
	b := Term(s, 2, "x").AddConst(1)
	c := Term(s, 2, "x").AddConst(2)
	d := Term(s, 2, "y").AddConst(1)
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Error("Expr.Equal wrong")
	}
	if a.CoeffAt(0) != 2 || a.CoeffAt(1) != 0 {
		t.Error("CoeffAt wrong")
	}
	if a.Coeff("zz") != 0 {
		t.Error("Coeff of unknown name should be 0")
	}
}

func TestMixedSpacePanics(t *testing.T) {
	a := MustSpace(nil, []string{"x"})
	b := MustSpace(nil, []string{"y"})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mixed spaces")
		}
	}()
	Var(a, "x").Add(Var(b, "y"))
}

// TestExprKey pins the key's text, which System.Sorted orders by: the
// coefficients each followed by a comma, then "|" and the constant.
func TestExprKey(t *testing.T) {
	s := MustSpace([]string{"N"}, []string{"x", "y"})
	e := Var(s, "x").Scale(-12).Add(Term(s, 3, "N")).AddConst(-7)
	if got, want := e.Key(), "3,-12,0,|-7"; got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
	if got, want := Zero(s).Key(), "0,0,0,|0"; got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
}
