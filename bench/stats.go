package main

import (
	"math"
	"slices"
)

// median returns the middle of v (the mean of the two middle values for
// an even count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := rank(p, len(sorted)) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// rank is the nearest-rank position of the p-th percentile among n
// samples. Multiplying before dividing keeps whole-number cases exact:
// 0.99*1000 is 990.0000000000001 in floating point, 99*1000/100 is 990.
func rank(p float64, n int) int { return int(math.Ceil(p * float64(n) / 100)) }

// tailLadder is the set of percentiles a tail latency may be reported
// at, highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of tailLadder that leaves
// at least ten of n samples beyond it, so the reported tail is never a
// single outlier. It returns 0 when even the median does not qualify.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// sortedCopy returns v in ascending order without touching v.
func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// p50 is the median of an unsorted sample.
func p50(v []float64) float64 { return percentile(sortedCopy(v), 50) }
