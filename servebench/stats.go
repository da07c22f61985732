package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, which must be ascending; it returns NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := rank(p, n) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// rank is the 1-based nearest-rank position of percentile p among n
// samples; the epsilon keeps p·n/100 from rounding up past an exact rank.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailLadder lists the percentiles the summary may report, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// highestSupported returns the highest percentile on tailLadder that has at
// least ten samples beyond it among n samples, or 0 when even the median
// has fewer than ten above it.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		// Samples strictly above the nearest-rank position of p.
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// sortedCopy returns xs sorted ascending without modifying xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (the mean of the middle pair for an even
// count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, or NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// trimmedMean returns the mean of xs without its lowest and highest tenth,
// or NaN for an empty slice.
func trimmedMean(xs []float64) float64 {
	s := sortedCopy(xs)
	cut := len(s) / 10
	return mean(s[cut : len(s)-cut])
}
