// Package stat holds the benchmark's summary statistics: percentiles that
// refuse to extrapolate past their data, and the median and quartiles used
// to judge run-to-run spread.
package stat

import (
	"fmt"
	"math"
	"sort"
)

// MinBeyond is how many samples must lie above a percentile before the
// benchmark reports it: with fewer, the "tail" is a handful of points.
const MinBeyond = 10

// Percentile returns the nearest-rank p-th percentile (0 < p < 1) of
// sorted, ascending samples. It refuses when fewer than MinBeyond samples
// lie beyond the rank, so p90 needs at least 100 samples.
func Percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if n == 0 || n-rank < MinBeyond {
		return 0, fmt.Errorf("p%g of %d samples: fewer than %d samples beyond it", p*100, n, MinBeyond)
	}
	return sorted[max(rank, 1)-1], nil
}

// Sorted returns an ascending copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Mean returns the arithmetic mean, 0 for no samples.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs (the mean of the middle two for even n).
func Median(xs []float64) float64 {
	s := Sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), which
// is how run-to-run spread is judged. It needs at least two values.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	s := Sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		// Position i*(n+1)/4 in 1-based order, interpolated.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return s[j-1] + (s[j]-s[j-1])*float64(delta)/4
	}
	return q(1), Median(s), q(3)
}
