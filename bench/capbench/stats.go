package main

import "slices"

// quantile returns the q-quantile of xs, interpolating linearly
// between the closest ranks. With no samples it returns 0: a run that
// measured nothing has failed its checks, and its metrics must still
// print as numbers.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
