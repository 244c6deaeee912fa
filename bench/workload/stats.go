package workload

import (
	"math"
	"sort"
)

var inf = math.Inf(1)

// Percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// values: the smallest value with at least p of the samples at or below
// it. It returns NaN for an empty sample.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// Beyond returns how many of n samples lie strictly beyond the
// nearest-rank p-quantile. A percentile is only reported when at least
// ten samples lie beyond it (p99 needs n >= 1000).
func Beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	// The epsilon keeps 0.99*1000 = 989.9999… from rounding up to 991.
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Quartiles returns the first, second and third quartile of values as
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), which is what the benchmark contract's spread check
// uses. values need not be sorted; fewer than two give NaN.
func Quartiles(values []float64) (q1, q2, q3 float64) {
	n := len(values)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Median returns the middle value (mean of the middle two for even n).
func Median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Spread is the interquartile range of values as a share of their median:
// the run-to-run steadiness figure the contract bounds.
func Spread(values []float64) float64 {
	q1, _, q3 := Quartiles(values)
	return (q3 - q1) / Median(values)
}
