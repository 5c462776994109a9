package table

import (
	"math"
	"sort"
)

// Statistics helpers shared across the toolchain.

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Median returns the median, or NaN for empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// StdDev returns the sample standard deviation (n-1), 0 for n<2.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// CoeffVar returns the coefficient of variation (stddev/mean).
func CoeffVar(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return math.NaN()
	}
	return StdDev(xs) / m
}
