package stats

import "math"

// Running accumulates a sample one value at a time using Welford's
// algorithm, so long evolution runs can track fitness moments without
// retaining every observation. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add feeds one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += float64(delta * (x - r.mean))
}

// N returns the number of observations so far.
func (r *Running) N() int { return r.n }

// Mean returns the running mean, or NaN before any observation.
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.mean
}

// Variance returns the unbiased running variance, or NaN before two
// observations.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return math.NaN()
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the running standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observation, or NaN before any observation.
func (r *Running) Min() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.min
}

// Max returns the largest observation, or NaN before any observation.
func (r *Running) Max() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.max
}

// Summary converts the accumulator to a Summary snapshot.
func (r *Running) Summary() Summary {
	s := Summary{N: r.n, Mean: r.Mean(), Min: r.Min(), Max: r.Max()}
	if r.n > 1 {
		s.StdDev = r.StdDev()
	}
	return s
}

// SeriesAccumulator averages several equal-length series point by point:
// the Fig 4 curves are means over 60 replicate series. Series of different
// lengths may be added; each index is averaged over the series that
// reached it.
type SeriesAccumulator struct {
	points []Running
}

// AddSeries feeds one replicate's series.
func (a *SeriesAccumulator) AddSeries(ys []float64) {
	for len(a.points) < len(ys) {
		a.points = append(a.points, Running{})
	}
	for i, y := range ys {
		a.points[i].Add(y)
	}
}

// Len returns the length of the longest series added.
func (a *SeriesAccumulator) Len() int { return len(a.points) }

// Mean returns the point-wise mean series.
func (a *SeriesAccumulator) Mean() []float64 {
	out := make([]float64, len(a.points))
	for i := range a.points {
		out[i] = a.points[i].Mean()
	}
	return out
}

// StdDev returns the point-wise sample standard deviation series (NaN
// where fewer than two replicates contributed).
func (a *SeriesAccumulator) StdDev() []float64 {
	out := make([]float64, len(a.points))
	for i := range a.points {
		out[i] = a.points[i].StdDev()
	}
	return out
}
