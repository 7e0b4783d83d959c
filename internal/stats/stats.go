// Package stats provides the descriptive statistics used to aggregate the
// paper's experiments: every reported number is "repeated 60 times and the
// average value is taken as a result" (§6.1), and the reproduction records
// dispersion alongside each mean so readers can judge how tight the bands
// are.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator), or NaN
// when fewer than two samples are given.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += float64(d * d)
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the smallest and largest values. It panics on an empty
// slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Summary is a one-pass description of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary. An empty sample yields a zero Summary with
// NaN moments.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{Mean: math.NaN(), StdDev: math.NaN(), Min: math.NaN(), Max: math.NaN()}
	}
	lo, hi := MinMax(xs)
	s := Summary{N: len(xs), Mean: Mean(xs), Min: lo, Max: hi}
	if len(xs) > 1 {
		s.StdDev = StdDev(xs)
	}
	return s
}

// String renders the summary compactly, e.g. "0.531 ± 0.012 [0.50,0.55] n=60".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g [%.4g,%.4g] n=%d", s.Mean, s.StdDev, s.Min, s.Max, s.N)
}
