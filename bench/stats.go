package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of xs, linearly
// interpolated between the two nearest ranks, and how many samples lie
// strictly above it. A tail percentile is trustworthy only when that
// count is at least ten. xs is not modified.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	value = s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	for i := len(s) - 1; i >= 0 && s[i] > value; i-- {
		beyond++
	}
	return value, beyond
}

// median is the 50th percentile of xs.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// geomean is the geometric mean of xs, which must all be positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
