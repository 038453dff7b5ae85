package lin

import (
	"fmt"
	"strconv"
	"strings"

	"dpgen/internal/ints"
)

// Expr is an affine expression sum(Coef[i]*name[i]) + K over a Space.
// The zero value is not usable; construct with Zero, Var, Const, or the
// arithmetic methods, all of which return fresh values (Exprs are treated
// as immutable).
type Expr struct {
	space *Space
	Coef  []int64
	K     int64
}

// Zero returns the zero expression over s.
func Zero(s *Space) Expr { return Expr{space: s, Coef: make([]int64, s.N())} }

// Const returns the constant expression k over s.
func Const(s *Space, k int64) Expr {
	e := Zero(s)
	e.K = k
	return e
}

// Var returns the expression consisting of the single name with
// coefficient 1. It panics if the name is not in the space.
func Var(s *Space, name string) Expr {
	i := s.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("lin: Var(%q): not in space %v", name, s))
	}
	e := Zero(s)
	e.Coef[i] = 1
	return e
}

// Term returns c*name over s.
func Term(s *Space, c int64, name string) Expr { return Var(s, name).Scale(c) }

// Space returns the space the expression is defined over.
func (e Expr) Space() *Space { return e.space }

// Clone returns a deep copy.
func (e Expr) Clone() Expr {
	return Expr{space: e.space, Coef: append([]int64(nil), e.Coef...), K: e.K}
}

// Coeff returns the coefficient of name (0 if the name is absent).
func (e Expr) Coeff(name string) int64 {
	i := e.space.Index(name)
	if i < 0 {
		return 0
	}
	return e.Coef[i]
}

// CoeffAt returns the coefficient at space index i.
func (e Expr) CoeffAt(i int) int64 { return e.Coef[i] }

// IsConst reports whether all coefficients are zero.
func (e Expr) IsConst() bool {
	for _, c := range e.Coef {
		if c != 0 {
			return false
		}
	}
	return true
}

// Add returns e + o. Both must share a space.
func (e Expr) Add(o Expr) Expr {
	e.mustShare(o)
	r := e.Clone()
	for i, c := range o.Coef {
		r.Coef[i] = ints.AddChecked(r.Coef[i], c)
	}
	r.K = ints.AddChecked(r.K, o.K)
	return r
}

// Sub returns e - o.
func (e Expr) Sub(o Expr) Expr { return e.Add(o.Neg()) }

// Neg returns -e.
func (e Expr) Neg() Expr { return e.Scale(-1) }

// Scale returns c*e.
func (e Expr) Scale(c int64) Expr {
	r := e.Clone()
	for i := range r.Coef {
		r.Coef[i] = ints.MulChecked(r.Coef[i], c)
	}
	r.K = ints.MulChecked(r.K, c)
	return r
}

// AddConst returns e + k.
func (e Expr) AddConst(k int64) Expr {
	r := e.Clone()
	r.K = ints.AddChecked(r.K, k)
	return r
}

// Subst returns the expression obtained by replacing name with the
// expression rep (which must share e's space). The coefficient of name in
// the result is zero.
func (e Expr) Subst(name string, rep Expr) Expr {
	e.mustShare(rep)
	i := e.space.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("lin: Subst(%q): not in space", name))
	}
	c := e.Coef[i]
	if c == 0 {
		return e.Clone()
	}
	r := e.Clone()
	r.Coef[i] = 0
	return r.Add(rep.Scale(c))
}

// Lift maps the expression into the (super)space to: every name of e's
// space must exist in to. Coefficients move by name.
func (e Expr) Lift(to *Space) Expr {
	r := Zero(to)
	r.K = e.K
	for i, c := range e.Coef {
		if c == 0 {
			continue
		}
		j := to.Index(e.space.Name(i))
		if j < 0 {
			panic(fmt.Sprintf("lin: Lift: name %q missing from target space", e.space.Name(i)))
		}
		r.Coef[j] = c
	}
	return r
}

// Project maps the expression into the (sub)space to. Names absent from
// to must have zero coefficient in e.
func (e Expr) Project(to *Space) (Expr, error) {
	r := Zero(to)
	r.K = e.K
	for i, c := range e.Coef {
		if c == 0 {
			continue
		}
		j := to.Index(e.space.Name(i))
		if j < 0 {
			return Expr{}, fmt.Errorf("lin: Project: nonzero coefficient on %q not in target space", e.space.Name(i))
		}
		r.Coef[j] = c
	}
	return r, nil
}

// Eval evaluates the expression with vals[i] the value of name i.
// len(vals) must equal the space size.
func (e Expr) Eval(vals []int64) int64 {
	if len(vals) != len(e.Coef) {
		panic(fmt.Sprintf("lin: Eval: got %d values for space of size %d", len(vals), len(e.Coef)))
	}
	acc := e.K
	for i, c := range e.Coef {
		if c != 0 {
			acc = ints.AddChecked(acc, ints.MulChecked(c, vals[i]))
		}
	}
	return acc
}

// EvalPartial substitutes concrete values for a prefix of the space
// (typically the parameters) and returns the residual expression over the
// same space with those coefficients folded into the constant.
func (e Expr) EvalPartial(vals map[string]int64) Expr {
	r := e.Clone()
	for name, v := range vals {
		i := r.space.Index(name)
		if i < 0 || r.Coef[i] == 0 {
			continue
		}
		r.K = ints.AddChecked(r.K, ints.MulChecked(r.Coef[i], v))
		r.Coef[i] = 0
	}
	return r
}

// ContentGCD returns the gcd of all coefficients (excluding the constant),
// or 0 if every coefficient is zero.
func (e Expr) ContentGCD() int64 {
	var g int64
	for _, c := range e.Coef {
		g = ints.GCD(g, c)
	}
	return g
}

// Equal reports exact structural equality.
func (e Expr) Equal(o Expr) bool {
	if !e.space.Equal(o.space) || e.K != o.K {
		return false
	}
	for i, c := range e.Coef {
		if o.Coef[i] != c {
			return false
		}
	}
	return true
}

// Key returns a canonical comparable key for deduplication within one
// space: the coefficients, each followed by a comma, then "|" and the
// constant. It is built in one buffer, since System.Dedup keys every
// inequality of every elimination step.
func (e Expr) Key() string {
	var small [96]byte
	b := small[:0]
	for _, c := range e.Coef {
		b = append(strconv.AppendInt(b, c, 10), ',')
	}
	return string(strconv.AppendInt(append(b, '|'), e.K, 10))
}

func (e Expr) String() string {
	var b strings.Builder
	first := true
	for i, c := range e.Coef {
		if c == 0 {
			continue
		}
		name := e.space.Name(i)
		switch {
		case first && c == 1:
			b.WriteString(name)
		case first && c == -1:
			b.WriteString("-" + name)
		case first:
			fmt.Fprintf(&b, "%d*%s", c, name)
		case c == 1:
			b.WriteString(" + " + name)
		case c == -1:
			b.WriteString(" - " + name)
		case c > 0:
			fmt.Fprintf(&b, " + %d*%s", c, name)
		default:
			fmt.Fprintf(&b, " - %d*%s", -c, name)
		}
		first = false
	}
	switch {
	case first:
		fmt.Fprintf(&b, "%d", e.K)
	case e.K > 0:
		fmt.Fprintf(&b, " + %d", e.K)
	case e.K < 0:
		fmt.Fprintf(&b, " - %d", -e.K)
	}
	return b.String()
}

func (e Expr) mustShare(o Expr) {
	if !e.space.Equal(o.space) {
		panic(fmt.Sprintf("lin: mixed spaces %v and %v", e.space, o.space))
	}
}
