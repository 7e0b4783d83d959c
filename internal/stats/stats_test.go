package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) is not NaN")
	}
	if got := Mean([]float64{7}); got != 7 {
		t.Errorf("Mean single = %v", got)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !approx(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := StdDev(xs); !approx(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of one sample is not NaN")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v,%v", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Error("MinMax(empty) did not panic")
		}
	}()
	MinMax(nil)
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("Summary.String is empty")
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) {
		t.Errorf("empty Summary = %+v", empty)
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	if !approx(r.Mean(), Mean(xs), 1e-12) {
		t.Errorf("running mean %v != batch %v", r.Mean(), Mean(xs))
	}
	if !approx(r.Variance(), Variance(xs), 1e-9) {
		t.Errorf("running variance %v != batch %v", r.Variance(), Variance(xs))
	}
	if r.n != len(xs) {
		t.Errorf("n = %d", r.n)
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if !math.IsNaN(r.Mean()) || !math.IsNaN(r.Variance()) {
		t.Error("empty Running should return NaN moments")
	}
}

// Property: Running agrees with the batch mean for arbitrary samples.
func TestRunningProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var r Running
		for i, v := range raw {
			xs[i] = float64(v)
			r.Add(xs[i])
		}
		if !approx(r.Mean(), Mean(xs), 1e-6) {
			return false
		}
		if len(xs) > 1 && !approx(r.Variance(), Variance(xs), 1e-4) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSeriesAccumulator(t *testing.T) {
	var a SeriesAccumulator
	a.AddSeries([]float64{1, 2, 3})
	a.AddSeries([]float64{3, 4, 5})
	mean := a.Mean()
	want := []float64{2, 3, 4}
	for i := range want {
		if mean[i] != want[i] {
			t.Errorf("mean[%d] = %v, want %v", i, mean[i], want[i])
		}
	}
	if len(a.points) != 3 {
		t.Errorf("%d points", len(a.points))
	}
	sd := a.StdDev()
	if !approx(sd[0], math.Sqrt(2), 1e-12) {
		t.Errorf("sd[0] = %v", sd[0])
	}
}

func TestSeriesAccumulatorRagged(t *testing.T) {
	var a SeriesAccumulator
	a.AddSeries([]float64{1, 1})
	a.AddSeries([]float64{3, 3, 3})
	mean := a.Mean()
	if len(mean) != 3 {
		t.Fatalf("ragged accumulator length %d, want 3", len(mean))
	}
	if mean[0] != 2 || mean[1] != 2 || mean[2] != 3 {
		t.Errorf("ragged mean = %v", mean)
	}
}

func BenchmarkRunningAdd(b *testing.B) {
	var r Running
	for i := 0; i < b.N; i++ {
		r.Add(float64(i % 100))
	}
}
