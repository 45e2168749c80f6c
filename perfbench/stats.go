package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples a reported tail percentile must leave
// above it: a percentile with fewer samples beyond it is one or two
// outliers, not a tail.
const minBeyond = 10

// samplesBeyond is how many of n samples lie strictly above percentile p.
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n) * (100 - p) / 100))
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs is sorted in place. An
// empty sample gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// topMean returns the mean of the largest share (0 < share ≤ 1) of xs,
// at least one sample; xs is sorted in place. An empty sample gives 0.
func topMean(xs []float64, share float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := max(1, int(math.Round(share*float64(len(xs)))))
	return mean(xs[len(xs)-k:])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// maxOf returns the largest of xs, 0 for an empty sample.
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// digest folds 64-bit words with FNV-1a over their little-endian bytes.
type digest uint64

// newDigest returns the FNV-1a offset basis.
func newDigest() digest { return 14695981039346656037 }

// word folds one 64-bit value.
func (d digest) word(x uint64) digest {
	for i := 0; i < 8; i++ {
		d ^= digest(byte(x >> (8 * i)))
		d *= 1099511628211
	}
	return d
}
