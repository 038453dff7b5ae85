package problems

import (
	"fmt"
	"strings"

	"dpgen/internal/spec"
)

// This file attaches generator-input source (global declarations and
// center-loop code) to the seeded problem constructors, so every
// built-in can be fed to cmd/dpgen and emitted as a standalone program.
// The embedded LCG reproduces workload.DNA byte-for-byte, keeping
// generated programs on identical inputs to the library problems.

// dnaGlobals emits the deterministic sequence generator plus the given
// sequence variable declarations and the unit substitution function.
func dnaGlobals(decls ...string) string {
	var b strings.Builder
	b.WriteString(`// Deterministic inputs: the same LCG as dpgen's workload package.
func dpDNA(n int, seed uint64) string {
	s := seed
	b := make([]byte, n)
	for i := range b {
		s = s*6364136223846793005 + 1442695040888963407
		b[i] = "ACGT"[(s>>33)%4]
	}
	return string(b)
}

// dpSub is the unit-cost substitution function (0 match, 1 mismatch).
func dpSub(a, b byte) float64 {
	if a == b {
		return 0
	}
	return 1
}

var _ = dpSub // not every kernel scores substitutions
`)
	for _, d := range decls {
		b.WriteString("\n" + d)
	}
	return b.String()
}

// lcs3KernelText is the center-loop code of the 3-string LCS.
const lcs3KernelText = `if is_valid_diag && seqA[i] == seqB[j] && seqA[i] == seqC[k] {
	V[loc] = 1 + V[loc_diag]
} else {
	best := 0.0
	if is_valid_di && V[loc_di] > best {
		best = V[loc_di]
	}
	if is_valid_dj && V[loc_dj] > best {
		best = V[loc_dj]
	}
	if is_valid_dk && V[loc_dk] > best {
		best = V[loc_dk]
	}
	V[loc] = best
}`

// lcs2KernelText is the pairwise LCS center loop.
const lcs2KernelText = `if is_valid_diag && seqA[i] == seqB[j] {
	V[loc] = 1 + V[loc_diag]
} else {
	best := 0.0
	if is_valid_di && V[loc_di] > best {
		best = V[loc_di]
	}
	if is_valid_dj && V[loc_dj] > best {
		best = V[loc_dj]
	}
	V[loc] = best
}`

// swKernelText is Smith-Waterman with +2/-1 scoring and gap penalty 2;
// the program's answer is its printed "max", not the goal value.
const swKernelText = `best := 0.0
if is_valid_sub {
	s := -1.0
	if seqA[i] == seqB[j] {
		s = 2
	}
	if v := V[loc_sub] + s; v > best {
		best = v
	}
}
if is_valid_del {
	if v := V[loc_del] - 2; v > best {
		best = v
	}
}
if is_valid_ins {
	if v := V[loc_ins] - 2; v > best {
		best = v
	}
}
V[loc] = best`

// bandit2DelayKernelText resolves pending observations in arm order
// before choosing the next pull (see Bandit2Delay).
const bandit2DelayKernelText = `switch {
case is_valid_succ1:
	p1 := (float64(s1) + 1) / (float64(s1) + float64(f1) + 2)
	V[loc] = p1*(1+V[loc_succ1]) + (1-p1)*V[loc_fail1]
case is_valid_succ2:
	p2 := (float64(s2) + 1) / (float64(s2) + float64(f2) + 2)
	V[loc] = p2*(1+V[loc_succ2]) + (1-p2)*V[loc_fail2]
case is_valid_pull1:
	v := V[loc_pull1]
	if V[loc_pull2] > v {
		v = V[loc_pull2]
	}
	V[loc] = v
default:
	V[loc] = 0
}`

// msaKernelText builds the sum-of-pairs center loop of an MSA spec
// (unit substitution, gap 1): dimension p reads sequence seqA, seqB, ...
// at its loop variable, and each dependence's vector is its move.
func msaKernelText(sp *spec.Spec) string {
	var b strings.Builder
	b.WriteString("best := math.Inf(1)\n")
	for _, d := range sp.Deps {
		mv := d.Vec
		var gapConst int
		var subs []string
		for p := 0; p < len(mv); p++ {
			for q := p + 1; q < len(mv); q++ {
				switch {
				case mv[p] == 1 && mv[q] == 1:
					subs = append(subs, fmt.Sprintf("dpSub(seq%c[%s], seq%c[%s])",
						'A'+p, sp.Vars[p], 'A'+q, sp.Vars[q]))
				case mv[p]+mv[q] == 1:
					gapConst++
				}
			}
		}
		expr := fmt.Sprintf("V[loc_%s]", d.Name)
		if gapConst > 0 {
			expr += fmt.Sprintf(" + %d", gapConst)
		}
		for _, s := range subs {
			expr += " + " + s
		}
		fmt.Fprintf(&b, `if is_valid_%s {
	if v := %s; v < best {
		best = v
	}
}
`, d.Name, expr)
	}
	b.WriteString(`if math.IsInf(best, 1) {
	best = 0
}
V[loc] = best`)
	return b.String()
}
