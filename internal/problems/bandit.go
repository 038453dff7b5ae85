package problems

import (
	"dpgen/internal/engine"
	"dpgen/internal/spec"
)

// Bandit2 is the paper's running example (Section II, Figure 1): the
// 2-arm Bernoulli bandit with uniform priors. V(s1,f1,s2,f2) is the
// expected number of future successes over the remaining
// N - s1 - f1 - s2 - f2 trials under optimal play; the program reports
// V(0), the value of the whole N-trial experiment.
func Bandit2() *Problem {
	sp := spec.MustNew("bandit2", []string{"N"}, []string{"s1", "f1", "s2", "f2"})
	sp.MustConstrain("s1 + f1 + s2 + f2 <= N")
	for _, v := range sp.Vars {
		sp.MustConstrain(v + " >= 0")
	}
	sp.AddDep("r1", 1, 0, 0, 0)
	sp.AddDep("r2", 0, 1, 0, 0)
	sp.AddDep("r3", 0, 0, 1, 0)
	sp.AddDep("r4", 0, 0, 0, 1)
	sp.TileWidths = []int64{6, 6, 6, 6}
	sp.LBDims = []string{"s1", "f1"}
	sp.KernelCode = `p1 := (float64(s1) + 1) / (float64(s1) + float64(f1) + 2)
p2 := (float64(s2) + 1) / (float64(s2) + float64(f2) + 2)
v1 := 0.0
v2 := 0.0
if is_valid_r1 {
	v1 = p1*(1+V[loc_r1]) + (1-p1)*V[loc_r2]
	v2 = p2*(1+V[loc_r3]) + (1-p2)*V[loc_r4]
}
if v1 > v2 {
	V[loc] = v1
} else {
	V[loc] = v2
}`

	// The body in run form: one call sweeps the N cells of a row run,
	// along which s1, f1, s2 — hence p1 — and the validity flag are
	// constant and f2 and the buffer locations advance. Under a loop
	// order with another variable innermost it takes one cell per call.
	kernel := func(c *engine.Ctx) {
		n := takeRun(c, 3)
		V, loc, step := c.V, c.Loc, c.Step
		if !c.DepValid[0] { // the four deps share the single sum constraint
			for ; n > 0; n-- {
				V[loc] = 0
				loc += step
			}
			return
		}
		r1, r2, r3, r4 := c.DepLoc[0]-loc, c.DepLoc[1]-loc, c.DepLoc[2]-loc, c.DepLoc[3]-loc
		s1, f1, s2 := float64(c.X[0]), float64(c.X[1]), float64(c.X[2])
		p1 := (s1 + 1) / (s1 + f1 + 2)
		for x3, dir := c.X[3], c.Dir; n > 0; n-- {
			f2 := float64(x3)
			p2 := (s2 + 1) / (s2 + f2 + 2)
			v1 := p1*(1+V[loc+r1]) + (1-p1)*V[loc+r2]
			v2 := p2*(1+V[loc+r3]) + (1-p2)*V[loc+r4]
			if v1 > v2 {
				V[loc] = v1
			} else {
				V[loc] = v2
			}
			loc += step
			x3 += dir
		}
	}

	serial := func(params []int64) float64 {
		N := params[0]
		size := N + 2
		idx := func(s1, f1, s2, f2 int64) int64 {
			return ((s1*size+f1)*size+s2)*size + f2
		}
		tab := make([]float64, size*size*size*size)
		for s1 := N; s1 >= 0; s1-- {
			for f1 := N - s1; f1 >= 0; f1-- {
				for s2 := N - s1 - f1; s2 >= 0; s2-- {
					for f2 := N - s1 - f1 - s2; f2 >= 0; f2-- {
						if s1+f1+s2+f2 == N {
							continue // zero base case
						}
						p1 := (float64(s1) + 1) / (float64(s1) + float64(f1) + 2)
						p2 := (float64(s2) + 1) / (float64(s2) + float64(f2) + 2)
						v1 := p1*(1+tab[idx(s1+1, f1, s2, f2)]) + (1-p1)*tab[idx(s1, f1+1, s2, f2)]
						v2 := p2*(1+tab[idx(s1, f1, s2+1, f2)]) + (1-p2)*tab[idx(s1, f1, s2, f2+1)]
						if v1 > v2 {
							tab[idx(s1, f1, s2, f2)] = v1
						} else {
							tab[idx(s1, f1, s2, f2)] = v2
						}
					}
				}
			}
		}
		return tab[0]
	}

	return &Problem{Spec: sp, Kernel: kernel, Serial: serial, DefaultParams: []int64{40}}
}

// Bandit3 is the 3-arm Bernoulli bandit (the problem hand-parallelized
// in the paper's reference [3]): a 6-dimensional space over
// (s1,f1,s2,f2,s3,f3) with sum at most N.
func Bandit3() *Problem {
	vars := []string{"s1", "f1", "s2", "f2", "s3", "f3"}
	sp := spec.MustNew("bandit3", []string{"N"}, vars)
	sp.MustConstrain("s1 + f1 + s2 + f2 + s3 + f3 <= N")
	for _, v := range vars {
		sp.MustConstrain(v + " >= 0")
	}
	for j := range vars {
		vec := make([]int64, 6)
		vec[j] = 1
		sp.AddDep("r"+vars[j], vec...)
	}
	sp.TileWidths = []int64{4, 4, 4, 4, 4, 4}
	sp.LBDims = []string{"s1", "f1"}
	sp.KernelCode = `best := 0.0
if is_valid_rs1 {
	p1 := (float64(s1) + 1) / (float64(s1) + float64(f1) + 2)
	p2 := (float64(s2) + 1) / (float64(s2) + float64(f2) + 2)
	p3 := (float64(s3) + 1) / (float64(s3) + float64(f3) + 2)
	v1 := p1*(1+V[loc_rs1]) + (1-p1)*V[loc_rf1]
	v2 := p2*(1+V[loc_rs2]) + (1-p2)*V[loc_rf2]
	v3 := p3*(1+V[loc_rs3]) + (1-p3)*V[loc_rf3]
	best = v1
	if v2 > best {
		best = v2
	}
	if v3 > best {
		best = v3
	}
}
V[loc] = best`

	kernel := func(c *engine.Ctx) {
		if !c.DepValid[0] {
			c.V[c.Loc] = 0
			return
		}
		var best float64
		for arm := 0; arm < 3; arm++ {
			s := float64(c.X[2*arm])
			f := float64(c.X[2*arm+1])
			p := (s + 1) / (s + f + 2)
			v := p*(1+c.V[c.DepLoc[2*arm]]) + (1-p)*c.V[c.DepLoc[2*arm+1]]
			if v > best {
				best = v
			}
		}
		c.V[c.Loc] = best
	}

	serial := func(params []int64) float64 {
		N := params[0]
		type key [6]int64
		tab := map[key]float64{}
		// Iterate by decreasing remaining budget so dependencies exist.
		var rec func(k key) float64
		rec = func(k key) float64 {
			if v, ok := tab[k]; ok {
				return v
			}
			var sum int64
			for _, v := range k {
				sum += v
			}
			if sum >= N {
				tab[k] = 0
				return 0
			}
			var best float64
			for arm := 0; arm < 3; arm++ {
				s, f := float64(k[2*arm]), float64(k[2*arm+1])
				p := (s + 1) / (s + f + 2)
				ks := k
				ks[2*arm]++
				kf := k
				kf[2*arm+1]++
				v := p*(1+rec(ks)) + (1-p)*rec(kf)
				if v > best {
					best = v
				}
			}
			tab[k] = best
			return best
		}
		return rec(key{})
	}

	return &Problem{Spec: sp, Kernel: kernel, Serial: serial, DefaultParams: []int64{20}}
}

// Bandit2Delay is the 2-arm bandit with delayed observations from the
// paper's evaluation (Section VI): a 6-dimensional problem over
// (u1,s1,f1,u2,s2,f2) where u_i counts pulls of arm i and s_i/f_i the
// observed outcomes, with s_i + f_i <= u_i — incrementing a result
// dimension requires the arm-pulled dimension to have been incremented
// first. The paper does not print the full recurrence; the model used
// here resolves pending observations in arm order before the next pull
// is chosen, which preserves the iteration space and the six-template
// dependence structure that drive performance.
func Bandit2Delay() *Problem {
	vars := []string{"u1", "s1", "f1", "u2", "s2", "f2"}
	sp := spec.MustNew("bandit2delay", []string{"N"}, vars)
	sp.MustConstrain("u1 + u2 <= N")
	sp.MustConstrain("s1 + f1 <= u1")
	sp.MustConstrain("s2 + f2 <= u2")
	for _, v := range vars {
		sp.MustConstrain(v + " >= 0")
	}
	sp.AddDep("pull1", 1, 0, 0, 0, 0, 0)
	sp.AddDep("succ1", 0, 1, 0, 0, 0, 0)
	sp.AddDep("fail1", 0, 0, 1, 0, 0, 0)
	sp.AddDep("pull2", 0, 0, 0, 1, 0, 0)
	sp.AddDep("succ2", 0, 0, 0, 0, 1, 0)
	sp.AddDep("fail2", 0, 0, 0, 0, 0, 1)
	sp.TileWidths = []int64{4, 4, 4, 4, 4, 4}
	sp.LBDims = []string{"u1", "u2"}
	sp.KernelCode = bandit2DelayKernelText

	kernel := func(c *engine.Ctx) {
		// Pending observations resolve first, arm 1 before arm 2.
		if c.DepValid[1] { // s1+1 valid <=> s1+f1 < u1
			s1, f1 := float64(c.X[1]), float64(c.X[2])
			p1 := (s1 + 1) / (s1 + f1 + 2)
			c.V[c.Loc] = p1*(1+c.V[c.DepLoc[1]]) + (1-p1)*c.V[c.DepLoc[2]]
			return
		}
		if c.DepValid[4] {
			s2, f2 := float64(c.X[4]), float64(c.X[5])
			p2 := (s2 + 1) / (s2 + f2 + 2)
			c.V[c.Loc] = p2*(1+c.V[c.DepLoc[4]]) + (1-p2)*c.V[c.DepLoc[5]]
			return
		}
		if c.DepValid[0] && c.DepValid[3] { // u1+u2 < N
			v1 := c.V[c.DepLoc[0]]
			v2 := c.V[c.DepLoc[3]]
			if v1 > v2 {
				c.V[c.Loc] = v1
			} else {
				c.V[c.Loc] = v2
			}
			return
		}
		c.V[c.Loc] = 0
	}

	serial := func(params []int64) float64 {
		N := params[0]
		type key [6]int64
		tab := map[key]float64{}
		var rec func(k key) float64
		rec = func(k key) float64 {
			if v, ok := tab[k]; ok {
				return v
			}
			u1, s1, f1, u2, s2, f2 := k[0], k[1], k[2], k[3], k[4], k[5]
			var v float64
			switch {
			case s1+f1 < u1:
				p1 := (float64(s1) + 1) / (float64(s1) + float64(f1) + 2)
				ks, kf := k, k
				ks[1]++
				kf[2]++
				v = p1*(1+rec(ks)) + (1-p1)*rec(kf)
			case s2+f2 < u2:
				p2 := (float64(s2) + 1) / (float64(s2) + float64(f2) + 2)
				ks, kf := k, k
				ks[4]++
				kf[5]++
				v = p2*(1+rec(ks)) + (1-p2)*rec(kf)
			case u1+u2 < N:
				k1, k2 := k, k
				k1[0]++
				k2[3]++
				v1, v2 := rec(k1), rec(k2)
				v = v1
				if v2 > v1 {
					v = v2
				}
			}
			tab[k] = v
			return v
		}
		return rec(key{})
	}

	return &Problem{Spec: sp, Kernel: kernel, Serial: serial, DefaultParams: []int64{16}}
}
