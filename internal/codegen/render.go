package codegen

import (
	"fmt"
	"strings"

	"dpgen/internal/lin"
	"dpgen/internal/loopgen"
)

// renamer maps space names to Go identifiers in the generated program.
type renamer func(name string) string

// renderExpr renders an affine expression as a Go int64 expression.
func renderExpr(e lin.Expr, rn renamer) string {
	var b strings.Builder
	first := true
	sp := e.Space()
	for i := 0; i < sp.N(); i++ {
		c := e.CoeffAt(i)
		if c == 0 {
			continue
		}
		id := rn(sp.Name(i))
		switch {
		case first && c == 1:
			b.WriteString(id)
		case first && c == -1:
			b.WriteString("-" + id)
		case first:
			fmt.Fprintf(&b, "%d*%s", c, id)
		case c == 1:
			b.WriteString(" + " + id)
		case c == -1:
			b.WriteString(" - " + id)
		case c > 0:
			fmt.Fprintf(&b, " + %d*%s", c, id)
		default:
			fmt.Fprintf(&b, " - %d*%s", -c, id)
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

// renderExprInt64 renders an affine expression so the result is typed
// int64 even when it degenerates to a literal constant.
func renderExprInt64(e lin.Expr, rn renamer) string {
	if e.IsConst() {
		return fmt.Sprintf("int64(%d)", e.K)
	}
	return renderExpr(e, rn)
}

// renderLower renders the max of a level's lower bounds.
func renderLower(bounds []loopgen.Bound, rn renamer) string {
	return renderBounds(bounds, rn, "dpCeilDiv", "max")
}

// renderUpper renders the min of a level's upper bounds.
func renderUpper(bounds []loopgen.Bound, rn renamer) string {
	return renderBounds(bounds, rn, "dpFloorDiv", "min")
}

func renderBounds(bounds []loopgen.Bound, rn renamer, div, comb string) string {
	parts := make([]string, len(bounds))
	for i, b := range bounds {
		if b.Div == 1 {
			parts[i] = "(" + renderExpr(b.Num, rn) + ")"
		} else {
			parts[i] = fmt.Sprintf("%s(%s, %d)", div, renderExpr(b.Num, rn), b.Div)
		}
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return comb + "(" + strings.Join(parts, ", ") + ")"
}

// renderIneqs renders a conjunction of inequalities (expr >= 0), or
// "true" when empty.
func renderIneqs(qs []lin.Ineq, rn renamer) string {
	if len(qs) == 0 {
		return "true"
	}
	parts := make([]string, len(qs))
	for i, q := range qs {
		parts[i] = "(" + renderExpr(q.Expr, rn) + ") >= 0"
	}
	return strings.Join(parts, " && ")
}

// renderInt64Array renders a fixed-size int64 array literal.
func renderInt64Array(vals []int64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// renderIntArray renders a fixed-size int array literal.
func renderIntArray(vals []int) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
