package main

import (
	"slices"
)

// percentile returns the q-quantile (0..1) of v by nearest rank; v need
// not be sorted and is not modified. An empty v gives 0.
func percentile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return float64(s[max(0, min(i, len(s)-1))])
}

// quartiles returns the first quartile, median and third quartile of v
// the way Python's statistics.quantiles(v, n=4) does (the exclusive
// method), so that spreads computed here match the ones the benchmark is
// accepted by. One value is its own three quartiles.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := max(1, min(k*(n+1)/4, n-1))
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
