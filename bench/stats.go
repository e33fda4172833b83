package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles the tail metric may report, highest
// first. pickTail walks it and keeps the first one the sample supports.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// pickTail returns the highest percentile of tailLadder with at least
// minBeyond of n samples beyond it. A sample too small for any of them gets
// the upper quartile, which is the best a few rounds can say about a tail.
func pickTail(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= minBeyond-1e-9 { // 1-0.9 is a hair under 0.1
			return p
		}
	}
	return tailLadder[len(tailLadder)-1]
}

// quantile returns the q-quantile of sorted by linear interpolation between
// the two nearest ranks. sorted must be ascending and non-empty.
func quantile[T uint32 | float64](sorted []T, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// median sorts a copy of xs and returns its median; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// spread is the distance between the first and third quartile of xs as a
// share of the median, by the same "exclusive" method as Python's
// statistics.quantiles(xs, n=4), which the acceptance check uses. It needs
// at least two values and returns 0 otherwise.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k float64) float64 {
		pos := k*float64(len(s)+1)/4 - 1
		lo := int(math.Floor(pos))
		lo = min(max(lo, 0), len(s)-2)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}
