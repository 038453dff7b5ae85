package simplex

import (
	"cmp"
	"math"
	"math/big"
	"slices"

	"dpgen/internal/ints"
	"dpgen/internal/lin"
)

// This file is the production path (see the package comment): a simplex
// dictionary over exact small rationals. Every inequality
// a_i.x + k_i >= 0 gets a slack variable s_i = a_i.x + k_i >= 0, and
// the dictionary writes each row variable as an affine form of the
// column variables, which sit at zero:
//
//	rowVar[r] = rows[r][nc] + sum_c rows[r][c] * colVar[c]
//
// It starts with the slacks (and the objective, if any) as rows over
// the free x columns. Every x that some inequality mentions is pivoted
// into a row once and never leaves (a free variable bounds nothing), so
// from then on the columns are slacks at zero. Feasibility raises the
// rows whose constant is negative one at a time over those already
// non-negative; an objective or a slack under test is lowered the same
// way. Bland's rule (smallest variable id enters, smallest leaves among
// ties) keeps each of those runs finite.
//
// The first multiply or add that does not fit int64 sets ovf; the
// table's contents are void from then on, and the caller answers the
// question on the big.Rat tableau instead.

// frac is the exact rational n/d with d > 0, gcd(|n|, d) = 1 and both
// fields above math.MinInt64, so negation never overflows.
type frac struct{ n, d int64 }

func (a frac) sign() int { return cmp.Compare(a.n, 0) }

func (a frac) neg() frac { return frac{-a.n, a.d} }

func (a frac) big() *big.Rat { return big.NewRat(a.n, a.d) }

// objVar is the variable id of the objective row; ids 0..nx-1 are the
// free variables of the space and nx+i is inequality i's slack.
const objVar = -1

// tab is the dictionary.
type tab struct {
	nx     int // names in the space
	nc     int // columns; rows are nc+1 wide, the constant last
	rows   [][]frac
	rowVar []int
	colVar []int
	mark   []bool // feasible's per-round scratch
	pivots uint64
	ovf    bool
}

func (t *tab) free(v int) bool { return v < t.nx }

// fit records an overflow and keeps the value usable (non-zero, so no
// later division faults) until the caller notices.
func (t *tab) fit(v int64, ok bool) int64 {
	if !ok || v == math.MinInt64 {
		t.ovf = true
		return 1
	}
	return v
}

func (t *tab) mul(a, b frac) frac {
	if a.n == 0 || b.n == 0 {
		return frac{0, 1}
	}
	if a.d != 1 || b.d != 1 {
		g1, g2 := ints.GCD(a.n, b.d), ints.GCD(b.n, a.d)
		a.n, b.d = a.n/g1, b.d/g1
		b.n, a.d = b.n/g2, a.d/g2
	}
	return frac{t.fit(ints.MulOK(a.n, b.n)), t.fit(ints.MulOK(a.d, b.d))}
}

func (t *tab) add(a, b frac) frac {
	if a.d == 1 && b.d == 1 {
		return frac{t.fit(ints.AddOK(a.n, b.n)), 1}
	}
	g := ints.GCD(a.d, b.d)
	n := t.fit(ints.AddOK(t.fit(ints.MulOK(a.n, b.d/g)), t.fit(ints.MulOK(b.n, a.d/g))))
	d := t.fit(ints.MulOK(a.d/g, b.d))
	if n == 0 {
		return frac{0, 1}
	}
	g = ints.GCD(n, d)
	return frac{n / g, d / g}
}

// div returns a/b for b != 0.
func (t *tab) div(a, b frac) frac {
	if b.n < 0 {
		return t.mul(a, frac{-b.d, -b.n})
	}
	return t.mul(a, frac{b.d, b.n})
}

func (t *tab) cmp(a, b frac) int {
	if a.d == 1 && b.d == 1 {
		return cmp.Compare(a.n, b.n)
	}
	return cmp.Compare(t.fit(ints.MulOK(a.n, b.d)), t.fit(ints.MulOK(b.n, a.d)))
}

// newTab builds the dictionary of ineqs over a space of nx names, with
// obj (if non-nil) as one more row to minimize, and pivots the free
// variables into rows. Names that neither an inequality nor the
// objective mentions get no column.
func newTab(nx int, ineqs []lin.Ineq, obj *lin.Expr) *tab {
	t := &tab{nx: nx}
	exprs := make([]lin.Expr, 0, len(ineqs)+1)
	for i, q := range ineqs {
		exprs = append(exprs, q.Expr)
		t.rowVar = append(t.rowVar, nx+i)
	}
	if obj != nil {
		exprs = append(exprs, *obj)
		t.rowVar = append(t.rowVar, objVar)
	}
	for j := 0; j < nx; j++ {
		for _, e := range exprs {
			if e.Coef[j] != 0 {
				t.colVar = append(t.colVar, j)
				break
			}
		}
	}
	t.nc = len(t.colVar)
	w := t.nc + 1
	cells := make([]frac, len(exprs)*w)
	t.rows = make([][]frac, len(exprs))
	t.mark = make([]bool, len(exprs))
	for r, e := range exprs {
		row := cells[r*w : (r+1)*w : (r+1)*w]
		for c, j := range t.colVar {
			row[c] = frac{t.fit(e.Coef[j], true), 1}
		}
		row[t.nc] = frac{t.fit(e.K, true), 1}
		t.rows[r] = row
	}
	for c := range t.colVar {
		// Any slack row that mentions the column will do; a unit
		// coefficient keeps the table integral.
		pr := -1
		for r, row := range t.rows {
			if row[c].n == 0 || t.free(t.rowVar[r]) {
				continue
			}
			if pr < 0 {
				pr = r
			}
			if row[c].n == 1 || row[c].n == -1 {
				pr = r
				break
			}
		}
		if pr >= 0 {
			t.pivot(pr, c)
		}
		// Otherwise no slack row depends on the column, now or after any
		// later pivot: only free rows can mention a free column.
	}
	return t
}

// pivot exchanges row r's variable with column c's: the row is solved
// for the column variable and substituted into every other row.
func (t *tab) pivot(r, c int) {
	t.pivots++
	pr := t.rows[r]
	inv := t.div(frac{1, 1}, pr[c])
	for j := range pr {
		if j != c {
			pr[j] = t.mul(pr[j], inv).neg()
		}
	}
	pr[c] = inv
	for i, row := range t.rows {
		f := row[c]
		if i == r || f.n == 0 {
			continue
		}
		for j := range row {
			if j == c {
				row[j] = t.mul(f, inv)
			} else if pr[j].n != 0 {
				row[j] = t.add(row[j], t.mul(f, pr[j]))
			}
		}
	}
	t.rowVar[r], t.colVar[c] = t.colVar[c], t.rowVar[r]
}

// limit is the ratio test for moving column c: among the rows that
// restrict and whose value falls as the column moves in direction dir
// (+1 up from zero, -1 down), the one that reaches zero first, and the
// step at which it does. skip is a row exempt from the test; restrict
// reports whether a row takes part. No such row returns -1.
func (t *tab) limit(c, dir, skip int, restrict func(r int) bool) (leave int, step frac) {
	leave = -1
	for r, row := range t.rows {
		if r == skip || row[c].sign() != -dir || !restrict(r) {
			continue
		}
		ratio := t.div(row[t.nc], row[c])
		if ratio.n < 0 {
			ratio = ratio.neg()
		}
		if leave >= 0 {
			if k := t.cmp(ratio, step); k > 0 || (k == 0 && t.rowVar[r] > t.rowVar[leave]) {
				continue
			}
		}
		leave, step = r, ratio
	}
	return leave, step
}

// slackRow reports whether row r holds a slack.
func (t *tab) slackRow(r int) bool { return !t.free(t.rowVar[r]) }

// enter is Bland's entering rule for moving row r's value in direction
// dir: the slack column of smallest id whose increase does so, or -1.
func (t *tab) enter(r, dir int) int {
	c := -1
	for j, v := range t.colVar {
		if !t.free(v) && t.rows[r][j].sign() == dir && (c < 0 || v < t.colVar[c]) {
			c = j
		}
	}
	return c
}

// feasible makes every slack row non-negative, or reports that the
// system has no rational solution. Each round takes one violated row
// and raises it over the rows that held when the round began; a row
// made non-negative stays so.
func (t *tab) feasible() bool {
	for {
		r := -1
		for i, row := range t.rows {
			t.mark[i] = t.slackRow(i) && row[t.nc].n >= 0
			if r < 0 && t.slackRow(i) && row[t.nc].n < 0 {
				r = i
			}
		}
		if r < 0 {
			return true
		}
		for t.rows[r][t.nc].n < 0 && !t.ovf {
			c := t.enter(r, +1)
			if c < 0 {
				return false // the row is at its maximum over a relaxation, below zero
			}
			leave, step := t.limit(c, +1, r, func(i int) bool { return t.mark[i] })
			reach := t.div(t.rows[r][t.nc], t.rows[r][c]).neg()
			if leave < 0 || t.cmp(reach, step) <= 0 {
				leave = r // the row gets to zero first: it becomes a column
			}
			t.pivot(leave, c)
		}
		if t.ovf {
			return false
		}
	}
}

// minimize lowers row r over the slack rows other than r, all of which
// must be non-negative, and reports whether it reached a minimum (left
// in the row's constant). With floor set it stops, without pivoting,
// as soon as one more step would take the row below zero, and reports
// false for that as for an unbounded descent.
func (t *tab) minimize(r int, floor bool) bool {
	for j, v := range t.colVar {
		// A free column moves either way and no slack row limits it; no
		// pivot below changes the row's coefficient on it.
		if t.free(v) && t.rows[r][j].n != 0 {
			return false
		}
	}
	for !t.ovf {
		c := t.enter(r, -1)
		if c < 0 {
			return true
		}
		leave, step := t.limit(c, +1, r, t.slackRow)
		if leave < 0 {
			return false
		}
		if floor && t.add(t.rows[r][t.nc], t.mul(t.rows[r][c], step)).n < 0 {
			return false
		}
		t.pivot(leave, c)
	}
	return false
}

// redundant decides whether inequality i is implied by the others in
// the table, all of which hold at the current vertex, and if it is
// takes its row out of the table for good. Every pivot keeps the whole
// system feasible, so the table serves the next question as it stands.
func (t *tab) redundant(i int) bool {
	v := t.nx + i
	r := slices.Index(t.rowVar, v)
	if r < 0 {
		// The slack is a column, at zero. It is implied only if it cannot
		// go below zero: some row must pin it there.
		c := slices.Index(t.colVar, v)
		leave, step := t.limit(c, -1, -1, t.slackRow)
		if leave < 0 || step.n != 0 {
			return false
		}
		t.pivot(leave, c)
		r = leave
	}
	if !t.minimize(r, true) {
		return false
	}
	t.rows = slices.Delete(t.rows, r, r+1)
	t.rowVar = slices.Delete(t.rowVar, r, r+1)
	return true
}

// value returns x_j at the current vertex.
func (t *tab) value(j int) frac {
	if r := slices.Index(t.rowVar, j); r >= 0 {
		return t.rows[r][t.nc]
	}
	return frac{0, 1}
}
