package stats

import "math"

// Running accumulates a sample one value at a time using Welford's
// algorithm, so long evolution runs can track fitness moments without
// retaining every observation. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add feeds one observation.
func (r *Running) Add(x float64) {
	r.n++
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += float64(delta * (x - r.mean))
}

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
