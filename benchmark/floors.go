package main

// The serial floors: the program a person would write by hand for each
// workload's recurrence, with rolling rows and no tiling, scheduling or
// message passing. overhead_x divides the system's time by these, so
// they are frozen: a change here moves every committed number. They
// import nothing from the repo (floors_test.go checks them bit-for-bit
// against the repo's own references), and each performs the same
// floating-point operations in the same order as the kernel it stands
// for, so answers compare by bit pattern.
//
// Each takes its two rolling buffers from the caller, who allocates them
// once per instance: the timed interval is then the recurrence alone, and
// the allocator and first-touch page faults — which vary by tens of
// percent from call to call — stay out of the divisor.

// floorLCS is the longest common subsequence length of a and b in
// suffix form, L(i,j) = LCS(a[i:], b[j:]), over two rolling rows of
// len(b)+1.
func floorLCS(a, b string, cur, next []float64) float64 {
	clear(next)
	for i := len(a) - 1; i >= 0; i-- {
		cur[len(b)] = 0
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				cur[j] = 1 + next[j+1]
				continue
			}
			best := next[j]
			if cur[j+1] > best {
				best = cur[j+1]
			}
			cur[j] = best
		}
		cur, next = next, cur
	}
	return next[0]
}

// floorBandit2 is V(0,0,0,0) of the 2-arm Bernoulli bandit with N
// trials: the dense four-deep loop nest over the simplex
// s1+f1+s2+f2 <= N, rolling two slabs of (N+2)^3 over s1.
func floorBandit2(N int64, cur, next []float64) float64 {
	size := N + 2
	idx := func(f1, s2, f2 int64) int64 { return (f1*size+s2)*size + f2 }
	for s1 := N; s1 >= 0; s1-- {
		for f1 := N - s1; f1 >= 0; f1-- {
			p1 := (float64(s1) + 1) / (float64(s1) + float64(f1) + 2)
			for s2 := N - s1 - f1; s2 >= 0; s2-- {
				for f2 := N - s1 - f1 - s2; f2 >= 0; f2-- {
					if s1+f1+s2+f2 == N {
						cur[idx(f1, s2, f2)] = 0
						continue
					}
					p2 := (float64(s2) + 1) / (float64(s2) + float64(f2) + 2)
					v1 := p1*(1+next[idx(f1, s2, f2)]) + (1-p1)*cur[idx(f1+1, s2, f2)]
					v2 := p2*(1+cur[idx(f1, s2+1, f2)]) + (1-p2)*cur[idx(f1, s2, f2+1)]
					if v1 > v2 {
						cur[idx(f1, s2, f2)] = v1
					} else {
						cur[idx(f1, s2, f2)] = v2
					}
				}
			}
		}
		cur, next = next, cur
	}
	return next[0]
}

// floorKnapVal is the deterministic per-item value of the knap builtin.
func floorKnapVal(a int64) float64 { return float64((a*5)%11 + 1) }

// floorKnap is the bounded knapsack with N item kinds, at most three
// copies each, every copy weighing W, capacity C: V(a,u) is the best
// value from kinds a.. with u units spent, over two rolling rows of C+1.
func floorKnap(N, C, W int64, cur, next []float64) float64 {
	for a := N - 1; a >= 0; a-- {
		val := floorKnapVal(a)
		for u := int64(0); u <= C; u++ {
			var best float64
			for k := int64(0); k <= 3 && u+k*W <= C; k++ {
				v := float64(k) * val
				if a < N-1 {
					v += next[u+k*W]
				}
				if v > best {
					best = v
				}
			}
			cur[u] = best
		}
		cur, next = next, cur
	}
	return next[0]
}

// floorTriangleLongest is the longest dependence chain from (0,0) in
// the triangle i+j <= N with unit steps in i and j — the serve
// workload's spec under the server's "longest" kernel — over two
// rolling rows of N+2.
func floorTriangleLongest(N int64, cur, next []float64) float64 {
	for i := N; i >= 0; i-- {
		for j := N - i; j >= 0; j-- {
			v := 0.0
			if i+j < N {
				if d := next[j] + 1; d > v {
					v = d
				}
				if d := cur[j+1] + 1; d > v {
					v = d
				}
			}
			cur[j] = v
		}
		cur, next = next, cur
	}
	return next[0]
}
