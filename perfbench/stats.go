package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the sample-count rule for tail percentiles: a percentile is
// reported only when at least this many samples lie strictly beyond it, so
// a p99 needs 1000 samples and a median 20.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule: the smallest value with at least q·n samples at or below it. It
// refuses a quantile with fewer than minBeyond samples beyond it. xs is
// sorted in place.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", q)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, n-rank, minBeyond)
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// median returns the middle of xs (the mean of the middle two for even n),
// 0 for an empty slice. Medians of a handful of values (repeated set-ups,
// the few replans of one trace) are exempt from the tail rule; their
// sample count is reported beside them. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mean returns the arithmetic mean, 0 for an empty slice.
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

// windowedMean splits xs into consecutive windows of size samples and
// returns the median of the window means: the mean of a typical stretch of
// the run. A few windows hit by a stall the program did not cause (a
// neighbour on a shared host taking the cores) move it no more than they
// move a median, while a cost the program pays throughout moves every
// window. A trailing partial window is dropped; fewer than one full window
// gives the plain mean.
func windowedMean(xs []float64, size int) float64 {
	if size < 1 || len(xs) < size {
		return mean(xs)
	}
	var means []float64
	for i := 0; i+size <= len(xs); i += size {
		means = append(means, mean(xs[i:i+size]))
	}
	return median(means)
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
