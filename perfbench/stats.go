package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (p in [0,100]) of
// xs, or NaN for an empty sample. Failed calls enter as +Inf.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile is the highest candidate percentile with at least ten
// samples beyond it in a sample of n.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}
