package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// The measurement rules every metric of the benchmark goes through. They
// are table-tested in stats_test.go; compare.go applies the same quartile
// rule the acceptance check uses.

// percentile returns the p-th percentile (0–100) of sorted values,
// interpolating linearly between the two closest ranks. It returns NaN for
// an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the middle of values (the mean of the two middle ones for
// an even count) without reordering the caller's slice. It is the rule
// for a metric measured once per pass: the benchmark reports the median
// pass.
func median(values []float64) float64 {
	return percentile(sortedCopy(values), 50)
}

// tailPercentiles is the ladder tailPercentile picks from.
var tailPercentiles = []float64{99.9, 99, 90}

// tailPercentile returns the highest percentile of the ladder 90, 99, 99.9
// that leaves at least ten of n samples beyond it, and false when even the
// 90th does not: a tail read from fewer samples is noise.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// quartiles returns the three cut points of values into four groups by
// the "exclusive" method of Python's statistics.quantiles(values, n=4),
// the rule the run-to-run spread of a metric is judged by. It needs at
// least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func sortedCopy(values []float64) []float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	return s
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sumDurations(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// span is one traced call across a layer boundary. Name is
// "<layer>.<operation>"; parent indexes the span that caused it (-1 for a
// root); lane identifies the goroutine that recorded a root span.
type span struct {
	name       string
	parent     int
	lane       int
	start, end time.Duration // since the trace began
}

func (s span) duration() time.Duration { return s.end - s.start }

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children that overlap each other
// (parallel work under one parent) are counted once, and any part of a
// child outside its parent's interval is ignored.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		slices.SortFunc(kids, func(a, b int) int { return cmp.Compare(spans[a].start, spans[b].start) })
		covered := time.Duration(0)
		cur := s.start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(spans[k].start, cur), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.duration() - covered
	}
	return out
}
