package spec

import (
	"fmt"
	"strconv"
	"strings"

	"dpgen/internal/lin"
)

// ParseConstraint parses a (possibly chained) linear relation such as
//
//	"s1 + f1 + s2 + f2 <= N"
//	"0 <= s1 <= N"
//	"2*d1 = p1 + p2"
//
// into one or more inequalities (expr >= 0) over the given space. Strict
// relations are tightened for integers (a < b becomes a <= b-1).
func ParseConstraint(space *lin.Space, text string) ([]lin.Ineq, error) {
	toks, err := tokenize(text)
	if err != nil {
		return nil, err
	}
	p := &parser{space: space, toks: toks}
	exprs := []lin.Expr{}
	ops := []string{}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	exprs = append(exprs, e)
	for p.peek().kind == tokRel {
		op := p.next().text
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
		exprs = append(exprs, e)
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("spec: unexpected %q in constraint %q", p.peek().text, text)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("spec: constraint %q has no relation", text)
	}
	var out []lin.Ineq
	for i, op := range ops {
		a, b := exprs[i], exprs[i+1]
		switch op {
		case "<=":
			out = append(out, lin.LE(a, b))
		case ">=":
			out = append(out, lin.GE(a, b))
		case "<":
			out = append(out, lin.LE(a, b.AddConst(-1)))
		case ">":
			out = append(out, lin.GE(a, b.AddConst(1)))
		case "=", "==":
			out = append(out, lin.GE(a, b), lin.LE(a, b))
		default:
			return nil, fmt.Errorf("spec: unknown relation %q", op)
		}
	}
	return out, nil
}

// ParseExpr parses a single affine expression (no relation) over the
// space.
func ParseExpr(space *lin.Space, text string) (lin.Expr, error) {
	toks, err := tokenize(text)
	if err != nil {
		return lin.Expr{}, err
	}
	p := &parser{space: space, toks: toks}
	e, err := p.expr()
	if err != nil {
		return lin.Expr{}, err
	}
	if p.peek().kind != tokEOF {
		return lin.Expr{}, fmt.Errorf("spec: unexpected %q in expression %q", p.peek().text, text)
	}
	return e, nil
}

// parseAffine parses text into a canonical Affine over the spec space.
func (sp *Spec) parseAffine(text string) (Affine, error) {
	e, err := ParseExpr(sp.space, text)
	if err != nil {
		return Affine{}, err
	}
	return affineFromExpr(e), nil
}

// stripAngles drops a component vector's angle brackets. A Replacer
// builds its lookup table on first use, so one is shared.
var stripAngles = strings.NewReplacer("<", "", ">", "")

// parseComponents parses a vector of affine components: comma-separated
// when a comma is present, whitespace-separated otherwise; angle
// brackets are ignored.
func (sp *Spec) parseComponents(text string) ([]Affine, error) {
	text = stripAngles.Replace(text)
	var parts []string
	if strings.Contains(text, ",") {
		parts = strings.Split(text, ",")
	} else {
		parts = strings.Fields(text)
	}
	out := make([]Affine, 0, len(parts))
	for _, p := range parts {
		a, err := sp.parseAffine(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// splitAffines separates a component vector into its constant part and,
// when any parameter term is present, the parameter-affine remainder.
func splitAffines(comps []Affine) (vec []int64, pvec []Affine) {
	vec = make([]int64, len(comps))
	any := false
	rest := make([]Affine, len(comps))
	for k, a := range comps {
		vec[k] = a.K
		rest[k] = Affine{Terms: a.Terms}
		if len(a.Terms) > 0 {
			any = true
		}
	}
	if any {
		pvec = rest
	}
	return vec, pvec
}

// AddDepSpec appends a dependence written in the input syntax: base is
// the offset component vector ("1, 0" or "2*N + 1, 0"), and dir/count,
// when non-empty, declare a range template's step vector and length
// form ("N - m - 1"). Components using parameters require declared
// bounds (see Bound).
func (sp *Spec) AddDepSpec(name, base, dir, count string) error {
	comps, err := sp.parseComponents(base)
	if err != nil {
		return fmt.Errorf("spec: dep %q base: %w", name, err)
	}
	dep := Dep{Name: name}
	dep.Vec, dep.PVec = splitAffines(comps)
	if (dir == "") != (count == "") {
		return fmt.Errorf("spec: dep %q must declare step and count together", name)
	}
	if dir != "" {
		dcomps, err := sp.parseComponents(dir)
		if err != nil {
			return fmt.Errorf("spec: dep %q step: %w", name, err)
		}
		dep.Dir, dep.PDir = splitAffines(dcomps)
		l, err := sp.parseAffine(count)
		if err != nil {
			return fmt.Errorf("spec: dep %q count: %w", name, err)
		}
		dep.Len = &l
	}
	// Reject loop variables in offsets and directions early (Validate
	// would also catch this, with a less precise message).
	for _, as := range [][]Affine{dep.PVec, dep.PDir} {
		for _, a := range as {
			for _, t := range a.Terms {
				if i := sp.space.Index(t.Name); i >= 0 && !sp.space.IsParam(i) {
					return fmt.Errorf("spec: dep %q uses loop variable %q in an offset; only the count may use loop variables", name, t.Name)
				}
			}
		}
	}
	sp.Deps = append(sp.Deps, dep)
	return nil
}

// MustAddDepSpec is AddDepSpec that panics on error, for fixed built-in
// problems and generated regression cases.
func (sp *Spec) MustAddDepSpec(name, base, dir, count string) {
	if err := sp.AddDepSpec(name, base, dir, count); err != nil {
		panic(err)
	}
}

// FormatDep renders a dependence in the canonical input syntax accepted
// by Parse and AddDepSpec.
func (sp *Spec) FormatDep(j int) (name, base, dir, count string) {
	dep := &sp.Deps[j]
	comp := func(vec []int64, pvec []Affine, k int) string {
		a := Affine{}
		if vec != nil {
			a.K = vec[k]
		}
		if pvec != nil {
			a.Terms = pvec[k].Terms
		}
		return a.String()
	}
	var bs []string
	for k := range sp.Vars {
		bs = append(bs, comp(dep.Vec, dep.PVec, k))
	}
	base = strings.Join(bs, ", ")
	if dep.IsRange() {
		var ds []string
		for k := range sp.Vars {
			ds = append(ds, comp(dep.Dir, dep.PDir, k))
		}
		dir = strings.Join(ds, ", ")
		count = dep.Len.String()
	}
	return dep.Name, base, dir, count
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokInt
	tokIdent
	tokOp  // + - *
	tokRel // <= >= < > = ==
	tokLParen
	tokRParen
)

type token struct {
	kind tokKind
	text string
	num  int64
}

func tokenize(s string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '(':
			toks = append(toks, token{kind: tokLParen, text: "("})
			i++
		case c == ')':
			toks = append(toks, token{kind: tokRParen, text: ")"})
			i++
		case c == '+' || c == '-' || c == '*':
			toks = append(toks, token{kind: tokOp, text: string(c)})
			i++
		case c == '<' || c == '>' || c == '=':
			j := i + 1
			if j < len(s) && s[j] == '=' {
				j++
			}
			toks = append(toks, token{kind: tokRel, text: s[i:j]})
			i = j
		case c >= '0' && c <= '9':
			j := i
			for j < len(s) && s[j] >= '0' && s[j] <= '9' {
				j++
			}
			n, err := strconv.ParseInt(s[i:j], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("spec: bad integer %q: %v", s[i:j], err)
			}
			toks = append(toks, token{kind: tokInt, text: s[i:j], num: n})
			i = j
		case isIdentStart(c):
			j := i
			for j < len(s) && isIdentChar(s[j]) {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: s[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("spec: unexpected character %q in %q", c, s)
		}
	}
	toks = append(toks, token{kind: tokEOF})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

type parser struct {
	space *lin.Space
	toks  []token
	pos   int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

// expr := ['-'|'+'] term (('+'|'-') term)*
func (p *parser) expr() (lin.Expr, error) {
	acc := lin.Zero(p.space)
	sign := int64(1)
	if t := p.peek(); t.kind == tokOp && (t.text == "-" || t.text == "+") {
		if t.text == "-" {
			sign = -1
		}
		p.next()
	}
	t, err := p.term()
	if err != nil {
		return lin.Expr{}, err
	}
	acc = acc.Add(t.Scale(sign))
	for {
		tk := p.peek()
		if tk.kind != tokOp || tk.text == "*" {
			return acc, nil
		}
		p.next()
		sign = 1
		if tk.text == "-" {
			sign = -1
		}
		t, err := p.term()
		if err != nil {
			return lin.Expr{}, err
		}
		acc = acc.Add(t.Scale(sign))
	}
}

// term := INT ['*' factor] | factor ['*' INT] | '(' expr ')' ['*' INT]
func (p *parser) term() (lin.Expr, error) {
	tk := p.peek()
	switch tk.kind {
	case tokInt:
		p.next()
		coef := tk.num
		if p.peek().kind == tokOp && p.peek().text == "*" {
			p.next()
			f, err := p.factor()
			if err != nil {
				return lin.Expr{}, err
			}
			return f.Scale(coef), nil
		}
		return lin.Const(p.space, coef), nil
	default:
		f, err := p.factor()
		if err != nil {
			return lin.Expr{}, err
		}
		if p.peek().kind == tokOp && p.peek().text == "*" {
			p.next()
			c := p.next()
			if c.kind != tokInt {
				return lin.Expr{}, fmt.Errorf("spec: expected integer after '*', got %q", c.text)
			}
			return f.Scale(c.num), nil
		}
		return f, nil
	}
}

// factor := IDENT | '(' expr ')'
func (p *parser) factor() (lin.Expr, error) {
	tk := p.next()
	switch tk.kind {
	case tokIdent:
		if !p.space.Has(tk.text) {
			return lin.Expr{}, fmt.Errorf("spec: unknown name %q (space %v)", tk.text, p.space)
		}
		return lin.Var(p.space, tk.text), nil
	case tokLParen:
		e, err := p.expr()
		if err != nil {
			return lin.Expr{}, err
		}
		if c := p.next(); c.kind != tokRParen {
			return lin.Expr{}, fmt.Errorf("spec: expected ')', got %q", c.text)
		}
		return e, nil
	default:
		return lin.Expr{}, fmt.Errorf("spec: expected name or '(', got %q", tk.text)
	}
}

// Parse reads the generator's text input format. The format is line
// oriented:
//
//	# comment
//	name bandit2
//	params N
//	vars s1 f1 s2 f2
//	constraint s1 + f1 + s2 + f2 <= N
//	constraint s1 >= 0
//	dep r1 1 0 0 0
//	order s1 f1 s2 f2          (optional; default: vars order)
//	balance s1 f1              (optional; default: first variable)
//	tile 6 6 6 6               (optional; default: 8 per dimension)
//	elem float64               (optional)
//	goal 0 0 0 0               (optional; default: origin)
//	global:                    (optional code sections, ended by "end")
//	  ...Go declarations...
//	end
//	init:
//	  ...Go statements...
//	end
//	kernel:
//	  ...Go statements, the center loop body...
//	end
//
// name, params and vars must appear before any constraint or dep.
func Parse(input string) (*Spec, error) {
	var sp *Spec
	var name string
	var params, vars []string
	lines := strings.Split(input, "\n")

	ensure := func(lineNo int) error {
		if sp != nil {
			return nil
		}
		if name == "" || len(vars) == 0 {
			return fmt.Errorf("spec:%d: name and vars must be declared first", lineNo)
		}
		var err error
		sp, err = New(name, params, vars)
		return err
	}

	for i := 0; i < len(lines); i++ {
		lineNo := i + 1
		line := strings.TrimSpace(lines[i])
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Code sections.
		if sect, ok := strings.CutSuffix(line, ":"); ok && (sect == "global" || sect == "init" || sect == "kernel") {
			var body []string
			j := i + 1
			for ; j < len(lines); j++ {
				if strings.TrimSpace(lines[j]) == "end" {
					break
				}
				body = append(body, lines[j])
			}
			if j == len(lines) {
				return nil, fmt.Errorf("spec:%d: unterminated %s section", lineNo, sect)
			}
			if err := ensure(lineNo); err != nil {
				return nil, err
			}
			code := strings.Join(body, "\n")
			switch sect {
			case "global":
				sp.GlobalCode = code
			case "init":
				sp.InitCode = code
			case "kernel":
				sp.KernelCode = code
			}
			i = j
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch key {
		case "name":
			name = rest
		case "params":
			params = strings.Fields(rest)
		case "vars":
			vars = strings.Fields(rest)
		case "constraint":
			if err := ensure(lineNo); err != nil {
				return nil, err
			}
			if err := sp.Constrain(rest); err != nil {
				return nil, fmt.Errorf("spec:%d: %w", lineNo, err)
			}
		case "dep":
			if err := ensure(lineNo); err != nil {
				return nil, err
			}
			name, body, _ := strings.Cut(rest, " ")
			if name == "" || strings.TrimSpace(body) == "" {
				return nil, fmt.Errorf("spec:%d: dep needs a name and components", lineNo)
			}
			base, dir, count := strings.TrimSpace(body), "", ""
			if b, r, ok := strings.Cut(base, " step "); ok {
				d, c, ok := strings.Cut(r, " count ")
				if !ok {
					return nil, fmt.Errorf("spec:%d: dep %q has a step but no count", lineNo, name)
				}
				base, dir, count = strings.TrimSpace(b), strings.TrimSpace(d), strings.TrimSpace(c)
			}
			if err := sp.AddDepSpec(name, base, dir, count); err != nil {
				return nil, fmt.Errorf("spec:%d: %w", lineNo, err)
			}
		case "bound":
			if err := ensure(lineNo); err != nil {
				return nil, err
			}
			fields := strings.Fields(rest)
			if len(fields) != 3 {
				return nil, fmt.Errorf("spec:%d: bound needs a parameter, lo and hi", lineNo)
			}
			lo, err1 := strconv.ParseInt(fields[1], 10, 64)
			hi, err2 := strconv.ParseInt(fields[2], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("spec:%d: bad bound range %q %q", lineNo, fields[1], fields[2])
			}
			sp.Bound(fields[0], lo, hi)
		case "order":
			if err := ensure(lineNo); err != nil {
				return nil, err
			}
			sp.LoopOrder = strings.Fields(rest)
		case "balance":
			if err := ensure(lineNo); err != nil {
				return nil, err
			}
			sp.LBDims = strings.Fields(rest)
		case "tile":
			if err := ensure(lineNo); err != nil {
				return nil, err
			}
			for _, f := range strings.Fields(rest) {
				w, err := strconv.ParseInt(f, 10, 64)
				if err != nil || w < 1 {
					return nil, fmt.Errorf("spec:%d: bad tile width %q", lineNo, f)
				}
				sp.TileWidths = append(sp.TileWidths, w)
			}
		case "elem":
			if err := ensure(lineNo); err != nil {
				return nil, err
			}
			sp.Elem = rest
		case "goal":
			if err := ensure(lineNo); err != nil {
				return nil, err
			}
			for _, f := range strings.Fields(rest) {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("spec:%d: bad goal component %q", lineNo, f)
				}
				sp.Goal = append(sp.Goal, v)
			}
		default:
			return nil, fmt.Errorf("spec:%d: unknown directive %q", lineNo, key)
		}
	}
	if sp == nil {
		return nil, fmt.Errorf("spec: empty input")
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}
