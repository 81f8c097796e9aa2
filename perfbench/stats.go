package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted,
// and how many samples lie strictly beyond that rank.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{0.99999, 0.9999, 0.999, 0.99, 0.9, 0.5}

// tailQuantile picks the highest percentile of tailLadder that has at
// least minTail of n samples beyond it. ok is false when even the median
// has fewer.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailLadder {
		rank := int(math.Ceil(q * float64(n)))
		if n-rank >= minTail {
			return q, true
		}
	}
	return 0, false
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sortedCopy returns xs sorted ascending.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
