package main

import (
	"math"
	"sort"
)

// percentileLadder is the set of percentiles a tail figure may report,
// highest first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: with fewer, one outlier decides the figure.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error (0.999*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// supported reports whether percentile p of n samples has at least
// minBeyond samples beyond it (n = 1000 is the fewest that supports p99).
func supported(p float64, n int) bool {
	return n > 0 && n-rank(p, n) >= minBeyond
}

// tailPercentile returns the highest ladder percentile that n samples
// support; ok is false when not even the median is supported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range percentileLadder {
		if supported(p, n) {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of xs (which it
// sorts in place); 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), sorting a copy; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
