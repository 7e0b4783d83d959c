package strategy

import (
	"math"
	"slices"
	"testing"

	"adhocga/internal/rng"
)

func TestCensusTop(t *testing.T) {
	c := NewCensus()
	a := MustParse("000 111 111 111 1")
	b := MustParse("010 101 101 111 1")
	c.AddAll([]Strategy{a, a, a, b})
	if c.total != 4 || len(c.rows) != 2 {
		t.Fatalf("Total=%d Distinct=%d", c.total, len(c.rows))
	}
	top := c.Top(5)
	if len(top) != 2 {
		t.Fatalf("Top(5) returned %d entries", len(top))
	}
	if top[0].Strategy != a || top[0].Count != 3 {
		t.Errorf("top entry = %v ×%d", top[0].Strategy, top[0].Count)
	}
	if math.Abs(top[0].Fraction-0.75) > 1e-12 {
		t.Errorf("top fraction = %v", top[0].Fraction)
	}
	// k smaller than distinct count truncates.
	if got := c.Top(1); len(got) != 1 {
		t.Errorf("Top(1) returned %d entries", len(got))
	}
}

// TestCensusTopBounds checks Top at and past both ends of its range: no
// k panics, k ≤ 0 returns nothing, and k ≥ Distinct returns every row.
func TestCensusTopBounds(t *testing.T) {
	c := NewCensus()
	for _, key := range []string{"0000000000000", "1111111111111", "1111111111111", "0101010101010"} {
		c.AddAll([]Strategy{MustParse(key)})
	}
	for _, tc := range []struct{ k, want int }{
		{-1, 0},
		{0, 0},
		{1, 1},
		{len(c.rows), len(c.rows)},
		{len(c.rows) + 5, len(c.rows)},
	} {
		got := c.Top(tc.k)
		if got == nil || len(got) != tc.want {
			t.Errorf("Top(%d) = %v, want %d entries", tc.k, got, tc.want)
		}
	}
}

// TestZeroCensus checks that the zero Census is an empty census that
// records without NewCensus.
func TestZeroCensus(t *testing.T) {
	var c Census
	if c.total != 0 || len(c.rows) != 0 || len(c.Top(3)) != 0 {
		t.Fatalf("zero census not empty: total %d, distinct %d", c.total, len(c.rows))
	}
	c.AddAll([]Strategy{AllForward()})
	c.AddAll([]Strategy{AllDiscard(), AllForward()})
	if c.total != 3 || len(c.rows) != 2 || c.Top(1)[0].Count != 2 {
		t.Errorf("zero census after 3 adds: total %d, distinct %d, top %+v", c.total, len(c.rows), c.Top(1))
	}
}

// TestCensusAddAllMatchesAdd checks that batched recording and recording
// one strategy per AddAll build the same rows, and that AddAll keeps them
// at exactly their length.
func TestCensusAddAllMatchesAdd(t *testing.T) {
	r := rng.New(9)
	one, batched := NewCensus(), NewCensus()
	for range 3 {
		pop := make([]Strategy, 50)
		for i := range pop {
			pop[i] = genomeStrategy(uint16(r.Intn(64)))
			one.AddAll([]Strategy{pop[i]})
		}
		batched.AddAll(pop)
	}
	batched.AddAll(nil)
	if !slices.Equal(one.rows, batched.rows) || one.total != batched.total {
		t.Fatalf("batched rows %v (total %d), one-by-one rows %v (total %d)", batched.rows, batched.total, one.rows, one.total)
	}
	if cap(batched.rows) != len(batched.rows) {
		t.Errorf("AddAll left %d rows in capacity %d", len(batched.rows), cap(batched.rows))
	}
}

func TestCensusTopDeterministicTieBreak(t *testing.T) {
	c := NewCensus()
	c.AddAll([]Strategy{MustParse("1111111111111"), MustParse("0000000000000")})
	top := c.Top(2)
	if top[0].Strategy.Key() != "0000000000000" {
		t.Errorf("tie break should order by key; got %s first", top[0].Strategy.Key())
	}
}

func TestCensusSubStrategies(t *testing.T) {
	c := NewCensus()
	// 7 strategies with trust3 = 111, 3 with trust3 = 000.
	for i := 0; i < 7; i++ {
		c.AddAll([]Strategy{MustParse("000 000 000 111 1")})
	}
	for i := 0; i < 3; i++ {
		c.AddAll([]Strategy{MustParse("000 000 000 000 1")})
	}
	subs := c.SubStrategies(Trust3, 0)
	if len(subs) != 2 {
		t.Fatalf("got %d sub-strategies", len(subs))
	}
	if subs[0].Pattern != "111" || math.Abs(subs[0].Fraction-0.7) > 1e-12 {
		t.Errorf("dominant sub-strategy = %+v", subs[0])
	}
	// The 3% filter of the paper removes rare patterns.
	filtered := c.SubStrategies(Trust3, 0.5)
	if len(filtered) != 1 || filtered[0].Pattern != "111" {
		t.Errorf("filtered = %+v", filtered)
	}
}

func TestCensusUnknownForwardFraction(t *testing.T) {
	c := NewCensus()
	c.AddAll([]Strategy{MustParse("000 000 000 000 1"), MustParse("000 000 000 000 1"), MustParse("000 000 000 000 0")})
	if got := c.UnknownForwardFraction(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("UnknownForwardFraction = %v", got)
	}
	if NewCensus().UnknownForwardFraction() != 0 {
		t.Error("empty census should return 0")
	}
}

func TestCensusAddAll(t *testing.T) {
	r := rng.New(1)
	ss := make([]Strategy, 50)
	for i := range ss {
		ss[i] = Random(r)
	}
	c := NewCensus()
	c.AddAll(ss)
	if c.total != 50 {
		t.Errorf("total = %d", c.total)
	}
	// Fractions across Top(all) must sum to 1.
	sum := 0.0
	for _, e := range c.Top(1 << 20) {
		sum += e.Fraction
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v", sum)
	}
}

func TestCensusSubStrategyFractionsSum(t *testing.T) {
	r := rng.New(2)
	c := NewCensus()
	for i := 0; i < 200; i++ {
		c.AddAll([]Strategy{Random(r)})
	}
	for tl := TrustLevel(0); tl < NumTrustLevels; tl++ {
		sum := 0.0
		for _, e := range c.SubStrategies(tl, 0) {
			sum += e.Fraction
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("trust %d sub-strategy fractions sum to %v", tl, sum)
		}
	}
}
