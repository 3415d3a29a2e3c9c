package main

import "sort"

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (the "exclusive" method of Python's statistics.quantiles for
// the quartiles, the usual one for latency percentiles). xs need not be
// sorted; it is not modified. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0]
	}
	// Position on the (n+1)-point scale, clamped to the data.
	pos := q * float64(n+1)
	if pos <= 1 {
		return s[0]
	}
	if pos >= float64(n) {
		return s[n-1]
	}
	lo := int(pos) - 1
	frac := pos - float64(int(pos))
	return s[lo] + frac*(s[lo+1]-s[lo])
}
