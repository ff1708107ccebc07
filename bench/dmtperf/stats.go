package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the samples at or below it.
// xs is not modified. An empty sample has no percentile and yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle value of xs, or the mean of the two middle values
// when there is an even number of them; 0 for an empty sample. xs is not
// modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// sample is one timed observation: when it was due, and its value.
type sample struct {
	at time.Time
	v  float64
}

// values returns the sample values.
func values(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.v
	}
	return out
}

// slicePercentile splits the window [from, to) into n equal time slices,
// takes the p-th percentile of the samples due in each slice, and
// returns the median of those per-slice values. One host hiccup then
// moves one slice and not the reading. Slices without samples are
// skipped.
func slicePercentile(ss []sample, from, to time.Time, n int, p float64) float64 {
	width := to.Sub(from) / time.Duration(n)
	if width <= 0 {
		return percentile(values(ss), p)
	}
	slices := make([][]float64, n)
	for _, s := range ss {
		i := int(s.at.Sub(from) / width)
		if i < 0 || i >= n {
			continue
		}
		slices[i] = append(slices[i], s.v)
	}
	var tails []float64
	for _, xs := range slices {
		if len(xs) > 0 {
			tails = append(tails, percentile(xs, p))
		}
	}
	return median(tails)
}

// ratio divides, reading 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
