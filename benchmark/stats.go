package main

import "sort"

// quartiles returns the first quartile, median and third quartile of v,
// as Python's statistics.median and statistics.quantiles(v, n=4) (the
// exclusive method) compute them — the same arithmetic the acceptance
// check applies across runs. v may be in any order and is not modified.
func quartiles(v []float64) (q1, med, q3 float64) {
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		return s[0], med, s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), med, cut(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// spread is the interquartile range as a share of the median.
func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// summary is a sample set reduced for the report.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(v []float64) summary {
	q1, med, q3 := quartiles(v)
	return summary{Median: med, Q1: q1, Q3: q3, N: len(v)}
}
