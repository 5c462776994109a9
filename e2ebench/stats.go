package main

import "sort"

// tailBeyond is how many samples must lie beyond the tail percentile
// for it to mean anything.
const tailBeyond = 10

// median returns the middle value (the mean of the middle two for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic with at least tailBeyond
// samples above it, and the percentile it sits at. ok is false when
// there are too few samples for any such statistic.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := sorted(xs)
	k := n - tailBeyond - 1 // s[k+1:] holds exactly tailBeyond samples
	return s[k], 100 * float64(k+1) / float64(n), true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
