package spec

import (
	"math/rand"
	"strings"
	"testing"

	"dpgen/internal/lin"
)

func bandit2Spec(t testing.TB) *Spec {
	t.Helper()
	sp := MustNew("bandit2", []string{"N"}, []string{"s1", "f1", "s2", "f2"})
	sp.MustConstrain("s1 + f1 + s2 + f2 <= N")
	for _, v := range sp.Vars {
		sp.MustConstrain(v + " >= 0")
	}
	sp.AddDep("r1", 1, 0, 0, 0)
	sp.AddDep("r2", 0, 1, 0, 0)
	sp.AddDep("r3", 0, 0, 1, 0)
	sp.AddDep("r4", 0, 0, 0, 1)
	sp.TileWidths = []int64{6, 6, 6, 6}
	if err := sp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return sp
}

func TestParseConstraintBasics(t *testing.T) {
	s := lin.MustSpace([]string{"N"}, []string{"x", "y"})
	qs, err := ParseConstraint(s, "x + 2*y <= N")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 {
		t.Fatalf("got %d ineqs", len(qs))
	}
	q := qs[0]
	// N - x - 2y >= 0
	if q.Coeff("N") != 1 || q.Coeff("x") != -1 || q.Coeff("y") != -2 || q.K != 0 {
		t.Errorf("parsed wrong: %v", q)
	}
}

func TestParseConstraintChain(t *testing.T) {
	s := lin.MustSpace([]string{"N"}, []string{"x"})
	qs, err := ParseConstraint(s, "0 <= x <= N")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 {
		t.Fatalf("chain produced %d ineqs, want 2", len(qs))
	}
	sys := lin.NewSystem(s)
	sys.Add(qs...)
	if !sys.Contains([]int64{5, 3}) || sys.Contains([]int64{5, 6}) || sys.Contains([]int64{5, -1}) {
		t.Errorf("chain semantics wrong: %v", sys)
	}
}

func TestParseConstraintStrictAndEq(t *testing.T) {
	s := lin.MustSpace(nil, []string{"x", "y"})
	qs, err := ParseConstraint(s, "x < y")
	if err != nil {
		t.Fatal(err)
	}
	// y - 1 - x >= 0
	if qs[0].Coeff("y") != 1 || qs[0].Coeff("x") != -1 || qs[0].K != -1 {
		t.Errorf("strict < wrong: %v", qs[0])
	}
	qs, err = ParseConstraint(s, "x = y")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 {
		t.Errorf("equality should give 2 ineqs, got %d", len(qs))
	}
	qs, err = ParseConstraint(s, "x > y")
	if err != nil {
		t.Fatal(err)
	}
	if qs[0].Coeff("x") != 1 || qs[0].Coeff("y") != -1 || qs[0].K != -1 {
		t.Errorf("strict > wrong: %v", qs[0])
	}
}

func TestParseConstraintParensAndSigns(t *testing.T) {
	s := lin.MustSpace([]string{"N"}, []string{"x", "y"})
	qs, err := ParseConstraint(s, "-x + 2*(y - 1) >= -N")
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	// -x + 2y - 2 + N >= 0
	if q.Coeff("x") != -1 || q.Coeff("y") != 2 || q.Coeff("N") != 1 || q.K != -2 {
		t.Errorf("parsed wrong: %v", q)
	}
	// Postfix coefficient form "y*3".
	qs, err = ParseConstraint(s, "y*3 >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if qs[0].Coeff("y") != 3 { // tightening happens later, in System.Add
		t.Errorf("postfix coef wrong: %v", qs[0])
	}
}

func TestParseConstraintErrors(t *testing.T) {
	s := lin.MustSpace(nil, []string{"x"})
	for _, bad := range []string{
		"x + zz >= 0",  // unknown name
		"x >= ",        // missing rhs
		"x",            // no relation
		"x ~ 0",        // bad char
		"x >= 0 extra", // trailing garbage -> "extra" unknown... actually relation chain; unknown name error
		"(x >= 0",      // unbalanced
		"x * y >= 0",   // nonlinear
	} {
		if _, err := ParseConstraint(s, bad); err == nil {
			t.Errorf("ParseConstraint(%q) should fail", bad)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	sp := bandit2Spec(t)
	if got := sp.Order(); len(got) != 4 || got[0] != "s1" {
		t.Errorf("Order = %v", got)
	}
	if got := sp.Balance(); len(got) != 1 || got[0] != "s1" {
		t.Errorf("Balance = %v", got)
	}
	if got := sp.GoalPoint(); len(got) != 4 {
		t.Errorf("GoalPoint = %v", got)
	}
	if sp.ElemType() != "float64" {
		t.Errorf("ElemType = %q", sp.ElemType())
	}
	w := sp.Widths()
	if len(w) != 4 || w[0] != 6 {
		t.Errorf("Widths = %v", w)
	}
}

func TestSpecReach(t *testing.T) {
	sp := MustNew("p", nil, []string{"x", "y"})
	sp.AddDep("a", 2, 0)
	sp.AddDep("b", -1, 3)
	lo, hi := sp.Reach()
	if hi[0] != 2 || hi[1] != 3 || lo[0] != 1 || lo[1] != 0 {
		t.Errorf("Reach: lo=%v hi=%v", lo, hi)
	}
}

func TestValidateCatches(t *testing.T) {
	mk := func(mod func(*Spec)) error {
		sp := MustNew("p", []string{"N"}, []string{"x", "y"})
		sp.MustConstrain("0 <= x <= N")
		sp.MustConstrain("0 <= y <= N")
		sp.AddDep("r1", 1, 0)
		mod(sp)
		return sp.Validate()
	}
	if err := mk(func(sp *Spec) {}); err != nil {
		t.Fatalf("baseline should validate: %v", err)
	}
	cases := map[string]func(*Spec){
		"zero dep":       func(sp *Spec) { sp.AddDep("z", 0, 0) },
		"bad arity dep":  func(sp *Spec) { sp.AddDep("z", 1) },
		"dup dep":        func(sp *Spec) { sp.AddDep("r1", 0, 1) },
		"bad order var":  func(sp *Spec) { sp.LoopOrder = []string{"x", "zz"} },
		"partial order":  func(sp *Spec) { sp.LoopOrder = []string{"x"} },
		"bad balance":    func(sp *Spec) { sp.LBDims = []string{"N"} },
		"range no count": func(sp *Spec) { sp.Deps = append(sp.Deps, Dep{Name: "z", Vec: []int64{1, 0}, Dir: []int64{0, 1}}) },
		"zero step": func(sp *Spec) {
			l := AffConst(2)
			sp.Deps = append(sp.Deps, Dep{Name: "z", Vec: []int64{1, 0}, Dir: []int64{0, 0}, Len: &l})
		},
		"unbounded param": func(sp *Spec) { sp.MustAddDepSpec("z", "N, 0", "", "") },
		"bad bound":       func(sp *Spec) { sp.Bound("N", 5, 1) },
		"bound non-param": func(sp *Spec) { sp.Bound("x", 0, 1) },
		"tile arity":      func(sp *Spec) { sp.TileWidths = []int64{4} },
		"goal arity":      func(sp *Spec) { sp.Goal = []int64{0} },
		"bad elem":        func(sp *Spec) { sp.Elem = "complex128" },
		"no deps":         func(sp *Spec) { sp.Deps = nil },
		"no constraints":  func(sp *Spec) { sp.Constraints = nil },
		"unnamed spec":    func(sp *Spec) { sp.Name = "" },
	}
	for name, mod := range cases {
		if err := mk(mod); err == nil {
			t.Errorf("%s: Validate should fail", name)
		}
	}
}

const bandit2File = `
# 2-arm Bernoulli bandit (Section II of the paper)
name bandit2
params N
vars s1 f1 s2 f2

constraint s1 + f1 + s2 + f2 <= N
constraint s1 >= 0
constraint f1 >= 0
constraint s2 >= 0
constraint f2 >= 0

dep r1 <1, 0, 0, 0>
dep r2 <0, 1, 0, 0>
dep r3 <0, 0, 1, 0>
dep r4 <0, 0, 0, 1>

order s1 f1 s2 f2
balance s1 f1
tile 6 6 6 6
goal 0 0 0 0

kernel:
p1 := (float64(s1) + 1) / (float64(s1) + float64(f1) + 2)
p2 := (float64(s2) + 1) / (float64(s2) + float64(f2) + 2)
V1 := 0.0
if is_valid_r1 {
	V1 = p1*(1+V[loc_r1]) + (1-p1)*V[loc_r2]
}
V2 := 0.0
if is_valid_r3 {
	V2 = p2*(1+V[loc_r3]) + (1-p2)*V[loc_r4]
}
V[loc] = max(V1, V2)
end
`

func TestParseFile(t *testing.T) {
	sp, err := Parse(bandit2File)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "bandit2" || len(sp.Vars) != 4 || len(sp.Deps) != 4 {
		t.Fatalf("parsed spec wrong: %+v", sp)
	}
	if len(sp.Constraints) != 5 {
		t.Errorf("constraints = %d, want 5", len(sp.Constraints))
	}
	if sp.Deps[2].Name != "r3" || sp.Deps[2].Vec[2] != 1 {
		t.Errorf("dep r3 wrong: %+v", sp.Deps[2])
	}
	if len(sp.LBDims) != 2 || sp.LBDims[1] != "f1" {
		t.Errorf("balance wrong: %v", sp.LBDims)
	}
	if !strings.Contains(sp.KernelCode, "V[loc] = max(V1, V2)") {
		t.Errorf("kernel code lost:\n%s", sp.KernelCode)
	}
	if sp.Goal == nil || len(sp.Goal) != 4 {
		t.Errorf("goal wrong: %v", sp.Goal)
	}
}

func TestParseFileErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"no name":         "vars x\nconstraint x >= 0",
		"early cons":      "constraint x >= 0\nname p\nvars x",
		"unknown key":     "name p\nvars x\nfrobnicate 3",
		"unterminated":    "name p\nvars x\nkernel:\ncode",
		"bad dep":         "name p\nvars x\ndep r1 q",
		"bad tile":        "name p\nvars x\ntile zero",
		"bad goal":        "name p\nvars x\ngoal x",
		"validation fail": "name p\nvars x\nconstraint x >= 0", // unbounded, no deps
	}
	for name, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("%s: Parse should fail", name)
		}
	}
}

func TestParseRoundTripSystem(t *testing.T) {
	sp, err := Parse(bandit2File)
	if err != nil {
		t.Fatal(err)
	}
	sys := sp.System()
	if !sys.Contains([]int64{10, 2, 3, 4, 1}) {
		t.Error("interior point rejected")
	}
	if sys.Contains([]int64{10, 2, 3, 4, 2}) {
		t.Error("exterior point accepted")
	}
}

func TestValidateMixedSignDimension(t *testing.T) {
	sp := MustNew("mixed", []string{"N"}, []string{"x"})
	sp.MustConstrain("0 <= x <= N")
	sp.AddDep("a", 1)
	sp.AddDep("b", -1)
	sp.TileWidths = []int64{4}
	if err := sp.Validate(); err == nil {
		t.Error("mixed-sign dimension should fail validation")
	}
}

// TestParserNeverPanics: the constraint parser and the file parser must
// return errors, not panic, on arbitrary garbage.
func TestParserNeverPanics(t *testing.T) {
	s := lin.MustSpace([]string{"N"}, []string{"x", "y"})
	rng := rand.New(rand.NewSource(1234))
	chars := []byte("xyN019+-*()<=> \tqz_")
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(24)
		b := make([]byte, n)
		for i := range b {
			b[i] = chars[rng.Intn(len(chars))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ParseConstraint(%q) panicked: %v", b, r)
				}
			}()
			_, _ = ParseConstraint(s, string(b))
		}()
	}
	lines := []string{"name p", "params N", "vars x y", "constraint x >= 0",
		"dep r 1 0", "tile 4 4", "kernel:", "end", "balance x", "goal 0 0",
		"order x y", "elem float64", "# c", "", "bogus", "constraint (",
	}
	for trial := 0; trial < 500; trial++ {
		k := rng.Intn(12) + 1
		var in []string
		for i := 0; i < k; i++ {
			in = append(in, lines[rng.Intn(len(lines))])
		}
		text := strings.Join(in, "\n")
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse(%q) panicked: %v", text, r)
				}
			}()
			_, _ = Parse(text)
		}()
	}
}

func TestSpecAccessors(t *testing.T) {
	sp := bandit2Spec(t)
	if sp.Space().N() != 5 {
		t.Error("Space wrong")
	}
	if sp.VarIndex("s2") != 2 || sp.VarIndex("zz") != -1 {
		t.Error("VarIndex wrong")
	}
	sp.Goal = []int64{1, 2, 3, 4}
	if got := sp.GoalPoint(); got[3] != 4 {
		t.Errorf("GoalPoint = %v", got)
	}
}

func TestMustConstrainPanics(t *testing.T) {
	sp := MustNew("p", nil, []string{"x"})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	sp.MustConstrain("x >= zz")
}
