package rng

import "testing"

// CheckExact asserts that c's integer-threshold decision equals the float
// reference scan — the first outcome whose cumulative weight exceeds
// float64(x)/2⁵³·total for the draw's top 53 bits x — on every draw within
// ±16 of each threshold, of each guess-table bucket edge and of both ends
// of the draw range, and on randomDraws seeded random draws. It also
// checks that no zero-weight outcome is ever chosen, that the scan's
// u == total edge lands on the last positive-weight outcome, and that the
// thresholds are the exact switch points of the scan.
func CheckExact(t testing.TB, name string, c *Categorical, randomDraws int) {
	t.Helper()
	total := c.cum[len(c.cum)-1]
	fails := 0
	check := func(x uint64) {
		// The low 11 bits of the engine output never take part; give
		// them arbitrary values so a decision that read them would show.
		draw := x<<(64-drawBits) | (x*0x9e3779b97f4a7c15)>>drawBits
		got, want := c.Outcome(draw), c.scan(scaled(x, total))
		if got != want && fails < 5 {
			fails++
			t.Errorf("%s: draw bits %#x: threshold decision %d, float scan %d", name, x, got, want)
		}
		if c.Prob(got) == 0 && fails < 5 {
			fails++
			t.Errorf("%s: draw bits %#x chose zero-weight outcome %d", name, x, got)
		}
	}
	around := func(x uint64) {
		for d := uint64(0); d <= 32; d++ {
			if y := x + d - 16; y < 1<<drawBits { // wraps past 0 → huge → skipped
				check(y)
			}
		}
	}

	last := c.scan(total)
	if last != len(c.thr)-1 || c.thr[last] != 1<<drawBits {
		t.Errorf("%s: scan(total) = %d, thresholds %v: the last threshold must sit past every draw", name, last, c.thr)
	}
	if c.Prob(last) == 0 {
		t.Errorf("%s: scan(total) = %d has zero weight", name, last)
	}
	for i := last + 1; i < len(c.cum); i++ {
		if c.Prob(i) != 0 {
			t.Errorf("%s: outcome %d past scan(total) = %d has weight", name, i, last)
		}
	}
	for i, thr := range c.thr[:last] {
		if i > 0 && thr < c.thr[i-1] {
			t.Errorf("%s: thresholds decrease at %d: %v", name, i, c.thr)
		}
		if thr < 1<<drawBits && scaled(thr, total) < c.cum[i] {
			t.Errorf("%s: threshold %d = %#x scales below cum %v", name, i, thr, c.cum[i])
		}
		if thr > 0 && scaled(thr-1, total) >= c.cum[i] {
			t.Errorf("%s: threshold %d = %#x is not the first draw reaching cum %v", name, i, thr, c.cum[i])
		}
		around(thr)
	}
	for b := uint64(0); b <= 256; b++ {
		around(b << (drawBits - 8))
	}
	s := New(uint64(len(name)) + uint64(len(c.cum))<<32)
	for i := 0; i < randomDraws; i++ {
		check(s.Uint64() >> (64 - drawBits))
	}
}
