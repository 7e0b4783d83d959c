package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewCategoricalErrors(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
	}{
		{"empty", nil},
		{"negative", []float64{0.5, -0.1}},
		{"nan", []float64{math.NaN()}},
		{"all zero", []float64{0, 0, 0}},
		{"infinite", []float64{1, math.Inf(1)}},
		{"overflowing sum", []float64{math.MaxFloat64, math.MaxFloat64}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewCategorical(tc.weights); err == nil {
				t.Fatalf("NewCategorical(%v) succeeded, want error", tc.weights)
			}
		})
	}
}

func TestMustCategoricalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCategorical did not panic on bad weights")
		}
	}()
	MustCategorical(nil)
}

func TestCategoricalProb(t *testing.T) {
	c := MustCategorical([]float64{1, 3, 0, 4})
	want := []float64{0.125, 0.375, 0, 0.5}
	for i, w := range want {
		if got := c.Prob(i); math.Abs(got-w) > 1e-12 {
			t.Errorf("Prob(%d) = %v, want %v", i, got, w)
		}
	}
	if c.Len() != 4 {
		t.Errorf("Len() = %d, want 4", c.Len())
	}
}

func TestCategoricalSampleFrequencies(t *testing.T) {
	c := MustCategorical([]float64{0.2, 0.3, 0.05, 0.45})
	s := New(6)
	const draws = 200000
	counts := make([]int, c.Len())
	for i := 0; i < draws; i++ {
		counts[c.Sample(s)]++
	}
	for i := 0; i < c.Len(); i++ {
		got := float64(counts[i]) / draws
		want := c.Prob(i)
		if math.Abs(got-want) > 0.005 {
			t.Errorf("outcome %d frequency %v, want %v", i, got, want)
		}
	}
}

func TestCategoricalNeverSamplesZeroWeight(t *testing.T) {
	c := MustCategorical([]float64{0, 1, 0, 2, 0})
	s := New(9)
	for i := 0; i < 100000; i++ {
		v := c.Sample(s)
		if v == 0 || v == 2 || v == 4 {
			t.Fatalf("sampled zero-weight outcome %d", v)
		}
	}
}

func TestCategoricalSingleOutcome(t *testing.T) {
	c := MustCategorical([]float64{7})
	s := New(2)
	for i := 0; i < 100; i++ {
		if got := c.Sample(s); got != 0 {
			t.Fatalf("Sample = %d, want 0", got)
		}
	}
}

// Property: Sample always returns a valid index with positive weight.
func TestCategoricalSampleProperty(t *testing.T) {
	s := New(55)
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		total := 0.0
		for i, r := range raw {
			weights[i] = float64(r)
			total += weights[i]
		}
		if total == 0 {
			weights[0] = 1
		}
		c := MustCategorical(weights)
		for i := 0; i < 32; i++ {
			v := c.Sample(s)
			if v < 0 || v >= len(weights) || weights[v] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCategoricalSample(b *testing.B) {
	c := MustCategorical([]float64{0.2, 0.3, 0.3, 0.05, 0.05, 0.05, 0.05})
	s := New(1)
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = c.Sample(s)
	}
	_ = sink
}

// The integer-threshold decision equals the float scan on shapes that
// stress it: zero weights at either end and in the middle (trailing zeros
// put the scan's u == total edge on an earlier outcome), a lone outcome,
// totals far from 1, weights whose cumulative sums round, and more
// outcomes than the 256-entry guess table can name.
func TestCategoricalThresholdsMatchScan(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	wide := make([]float64, 300)
	s := New(40)
	for i := range wide {
		if i%7 != 3 {
			wide[i] = s.Float64()
		}
	}
	tables := map[string][]float64{
		"zeros":        {0, 1, 0, 2, 0},
		"trailing":     {1, 2, 0, 0},
		"leading":      {0, 0, 3},
		"single":       {7},
		"tiny-tail":    {1, 1e-300},
		"huge-total":   {1e300, 3e300, 2e300},
		"thirds":       {1.0 / 3, 1.0 / 3, 1.0 / 3},
		"tenths":       {0.1, 0.2, 0.3, 0.4},
		"unnormalized": {3, 1, 4, 1, 5, 9, 2, 6},
		"wide":         wide,
	}
	for name, w := range tables {
		CheckExact(t, name, MustCategorical(w), draws)
	}
}

// FuzzCategorical checks the integer-threshold decision against the float
// scan for arbitrary weights (one per byte, in sevenths so cumulative sums
// round) and an arbitrary engine output, plus the draws around every
// threshold. The checked-in corpus under testdata/fuzz seeds it.
func FuzzCategorical(f *testing.F) {
	f.Add([]byte{2, 3, 3, 0, 1}, uint64(0))
	f.Add([]byte{1, 2, 0, 0}, ^uint64(0))
	f.Add([]byte{0, 9}, uint64(1)<<63)
	f.Fuzz(func(t *testing.T, raw []byte, draw uint64) {
		weights := make([]float64, len(raw))
		positive := false
		for i, b := range raw {
			weights[i] = float64(b) / 7
			positive = positive || b > 0
		}
		if !positive {
			if _, err := NewCategorical(weights); err == nil {
				t.Fatalf("weights %v with no positive entry accepted", raw)
			}
			return
		}
		c := MustCategorical(weights)
		x := draw >> (64 - drawBits)
		if got, want := c.Outcome(draw), c.scan(scaled(x, c.cum[len(c.cum)-1])); got != want {
			t.Fatalf("weights %v draw %#x: threshold decision %d, float scan %d", raw, draw, got, want)
		}
		CheckExact(t, "fuzz", c, 0)
	})
}
