package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		p      float64
		want   float64
	}{
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99, 7},
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{1, 2, 3, 4}, 100, 4},
		{[]float64{1, 2, 3, 4}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 50, 3},
		{[]float64{0, 10}, 90, 9},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 90, 100},
	} {
		if got := percentile(tc.values, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.values, tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no values = %v, want NaN", got)
	}
}

func TestMedianOfPasses(t *testing.T) {
	for _, tc := range []struct {
		passes []float64
		want   float64
	}{
		{[]float64{3}, 3},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 100}, 2}, // one slow pass does not move it
	} {
		in := append([]float64(nil), tc.passes...)
		if got := median(in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.passes, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.passes[i] {
				t.Fatalf("median reordered its input: %v", in)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{99, 0, false}, // 9.9 samples beyond p90
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(values, n=4),
// which is how the spread of a metric is judged.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := quartiles(tc.values)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.values, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// A timing is rescaled by the speed read on either side of it.
func TestAtNominal(t *testing.T) {
	t0 := time.Now()
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	r := report{speeds: []reading{{at(0), 100}, {at(10), 200}, {at(20), 400}}}
	for _, tc := range []struct {
		name     string
		iv       interval
		want     float64 // speed around it
		duration time.Duration
	}{
		{"between two readings", interval{at(1), at(9)}, 150, 8 * time.Second},
		{"the nearest on each side", interval{at(11), at(19)}, 300, 8 * time.Second},
		{"spanning a reading", interval{at(5), at(15)}, 250, 10 * time.Second},
		{"after the last reading", interval{at(21), at(22)}, 400, time.Second},
		{"before the first reading", interval{at(-2), at(-1)}, 100, time.Second},
	} {
		if got := r.speedAround(tc.iv); got != tc.want {
			t.Errorf("%s: speed %v, want %v", tc.name, got, tc.want)
		}
		want := time.Duration(float64(tc.duration) * tc.want / nominalSpeed)
		if got := r.atNominal(tc.iv); got != want {
			t.Errorf("%s: at nominal speed %v, want %v", tc.name, got, want)
		}
	}
	if got := (&report{}).atNominal(interval{at(0), at(3)}); got != 3*time.Second {
		t.Errorf("with no readings: %v, want the measured 3s", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for _, tc := range []struct {
		name  string
		spans []span
		want  []time.Duration
	}{
		{
			name:  "leaf",
			spans: []span{{parent: -1, start: 0, end: ms(10)}},
			want:  []time.Duration{ms(10)},
		},
		{
			name: "sequential children",
			spans: []span{
				{parent: -1, start: 0, end: ms(10)},
				{parent: 0, start: ms(1), end: ms(3)},
				{parent: 0, start: ms(5), end: ms(9)},
			},
			want: []time.Duration{ms(4), ms(2), ms(4)},
		},
		{
			name: "overlapping children count once",
			spans: []span{
				{parent: -1, start: 0, end: ms(10)},
				{parent: 0, start: ms(2), end: ms(6)},
				{parent: 0, start: ms(4), end: ms(8)},
			},
			want: []time.Duration{ms(4), ms(4), ms(4)},
		},
		{
			name: "child outside its parent is clipped",
			spans: []span{
				{parent: -1, start: ms(5), end: ms(10)},
				{parent: 0, start: ms(8), end: ms(12)},
			},
			want: []time.Duration{ms(3), ms(4)},
		},
		{
			name: "grandchildren reduce only their parent",
			spans: []span{
				{parent: -1, start: 0, end: ms(10)},
				{parent: 0, start: 0, end: ms(6)},
				{parent: 1, start: ms(1), end: ms(2)},
			},
			want: []time.Duration{ms(4), ms(5), ms(1)},
		},
	} {
		got := selfTimes(tc.spans)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("%s: self times %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}

func TestTracerSharesAndCoverage(t *testing.T) {
	tr := newTracer()
	at := func(n int) time.Time { return tr.t0.Add(time.Duration(n) * time.Millisecond) }
	unit := tr.add("runner.unit", -1, 0, at(0), at(10))
	tr.add("core.evaluate", unit, 0, at(0), at(8))
	tr.add("ga.stats", unit, 0, at(8), at(9))
	tr.add("runner.unit", -1, 1, at(0), at(5))
	tr.add("runner.unit", -1, 1, at(6), at(10)) // lane 1 idles 1 ms of 10

	shares := tr.layerShares()
	for layer, want := range map[string]float64{"core": 8.0 / 19, "ga": 1.0 / 19, "runner": 10.0 / 19, "service": 0} {
		if math.Abs(shares[layer]-want) > 1e-9 {
			t.Errorf("%s share = %v, want %v", layer, shares[layer], want)
		}
	}
	if got, want := tr.coverage(), 19.0/20; math.Abs(got-want) > 1e-9 {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("core.new", -1, 0); id != -1 {
		t.Errorf("a nil tracer handed out span %d", id)
	}
	nilTracer.end(-1)
}
