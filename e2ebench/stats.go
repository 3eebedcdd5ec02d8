package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// samplesBeyond is how many of n samples lie above the nearest-rank
// q-quantile.
func samplesBeyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs, which
// it sorts in place. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// scaled converts nanosecond samples to the unit given as ns per unit.
func scaled(ns []int64, perUnit float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / perUnit
	}
	return out
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// share is a/b, 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
