package trust

import (
	"math"
	"testing"
	"testing/quick"

	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
)

// observe records one watchdog observation in s, growing it as needed:
// the unit update a game applies to a matrix cell, applied to a store.
func observe(s *Store, id network.NodeID, forwarded bool) {
	s.EnsureSize(int(id) + 1)
	r := &s.rec[id]
	if r.Requests == 0 {
		s.known++
	}
	r.Requests++
	if forwarded {
		r.Forwards++
		s.forwardsSum++
	}
}

// rateOf returns s's forwarding rate for id and whether s knows id.
func rateOf(s *Store, id network.NodeID) (float64, bool) {
	c := s.Counters(id)
	if c.Requests == 0 {
		return 0, false
	}
	return c.Rate(), true
}

// activityOf is the §3.2 activity of src as s sees it; false when s
// knows nothing about src.
func activityOf(s *Store, src network.NodeID, band float64) (strategy.ActivityLevel, bool) {
	c := s.Counters(src)
	if c.Requests == 0 {
		return 0, false
	}
	known, fsum := s.Totals()
	return Activity(c.Forwards, known, fsum, band), true
}

func TestStoreObserveAndRates(t *testing.T) {
	s := NewStore()
	if _, known := rateOf(s, 1); known {
		t.Error("fresh store has a rate for node 1")
	}
	observe(s, 1, true)
	observe(s, 1, true)
	observe(s, 1, false)
	rate, known := rateOf(s, 1)
	if !known {
		t.Fatal("node 1 should be known")
	}
	if math.Abs(rate-2.0/3.0) > 1e-12 {
		t.Errorf("rate = %v, want 2/3", rate)
	}
	if c := s.Counters(1); c.Requests != 3 || c.Forwards != 2 {
		t.Errorf("ps=%d pf=%d", c.Requests, c.Forwards)
	}
	if s.Counters(2) != (Counters{}) || s.Counters(1000) != (Counters{}) {
		t.Error("unknown node has nonzero counters")
	}
}

func TestStoreReset(t *testing.T) {
	s := NewStore()
	observe(s, 1, true)
	observe(s, 2, false)
	s.Reset()
	if known, fsum := s.Totals(); known != 0 || fsum != 0 {
		t.Errorf("Reset left totals %d/%d", known, fsum)
	}
	// Store must be reusable after Reset.
	observe(s, 3, true)
	if rate, known := rateOf(s, 3); !known || rate != 1 {
		t.Error("store unusable after Reset")
	}
}

func TestMeanForwards(t *testing.T) {
	s := NewStore()
	// Node 1: 4 forwards; node 2: 0 forwards; node 3: 2 forwards → av = 2.
	for i := 0; i < 4; i++ {
		observe(s, 1, true)
	}
	observe(s, 2, false)
	observe(s, 3, true)
	observe(s, 3, true)
	if known, fsum := s.Totals(); known != 3 || fsum != 6 || float64(fsum)/float64(known) != 2 {
		t.Errorf("Totals = %d, %d; want 3, 6 (mean pf 2)", known, fsum)
	}
}

func TestDefaultTableLevels(t *testing.T) {
	tab := DefaultTable()
	if err := tab.Validate(); err != nil {
		t.Fatalf("default table invalid: %v", err)
	}
	cases := []struct {
		rate float64
		want strategy.TrustLevel
	}{
		{1.0, strategy.Trust3},
		{0.95, strategy.Trust3}, // the paper's example: 0.95 → trust 3
		{0.9, strategy.Trust3},  // boundary belongs to the higher level
		{0.89, strategy.Trust2},
		{0.6, strategy.Trust2},
		{0.59, strategy.Trust1},
		{0.5, strategy.Trust1}, // the unknown-node default rate maps to trust 1, matching §6.1
		{0.3, strategy.Trust1},
		{0.29, strategy.Trust0},
		{0.0, strategy.Trust0},
	}
	for _, c := range cases {
		if got := tab.Level(c.rate); got != c.want {
			t.Errorf("Level(%v) = %v, want %v", c.rate, got, c.want)
		}
	}
	// Boundary rates reached by counters land on the higher level too.
	for _, c := range []Counters{{Requests: 10, Forwards: 9}, {Requests: 20, Forwards: 18}} {
		if got := tab.Level(c.Rate()); got != strategy.Trust3 {
			t.Errorf("Level(%d/%d) = %v, want trust 3", c.Forwards, c.Requests, got)
		}
	}
}

func TestTableValidate(t *testing.T) {
	bad := []Table{
		{Thresholds: [3]float64{0.3, 0.6, 0.9}}, // ascending
		{Thresholds: [3]float64{0.9, 0.9, 0.3}}, // not strict
		{Thresholds: [3]float64{1.1, 0.6, 0.3}}, // out of range
		{Thresholds: [3]float64{0.9, 0.6, 0}},   // zero
	}
	for i, tab := range bad {
		if err := tab.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %v", i, tab.Thresholds)
		}
	}
}

func TestLevelOf(t *testing.T) {
	s := NewStore()
	tab := DefaultTable()
	// 19/20 forwards → 0.95 → trust 3 (paper's worked example).
	for i := 0; i < 19; i++ {
		observe(s, 7, true)
	}
	observe(s, 7, false)
	rate, known := rateOf(s, 7)
	if lvl := tab.Level(rate); !known || lvl != strategy.Trust3 {
		t.Errorf("level = %v,%v, want trust3,true", lvl, known)
	}
}

func TestActivityOf(t *testing.T) {
	s := NewStore()
	if _, known := activityOf(s, 1, DefaultActivityBand); known {
		t.Error("activity known for unknown source")
	}
	// Build av = 10 over two nodes: node 1 pf=16, node 2 pf=4.
	for i := 0; i < 16; i++ {
		observe(s, 1, true)
	}
	for i := 0; i < 4; i++ {
		observe(s, 2, true)
	}
	// av = 10; band = [8,12]. Node 1 (16) is high, node 2 (4) is low.
	if lvl, _ := activityOf(s, 1, DefaultActivityBand); lvl != strategy.ActivityHigh {
		t.Errorf("node 1 activity = %v, want HI", lvl)
	}
	if lvl, _ := activityOf(s, 2, DefaultActivityBand); lvl != strategy.ActivityLow {
		t.Errorf("node 2 activity = %v, want LO", lvl)
	}
	// A node exactly at the average is medium.
	s2 := NewStore()
	for i := 0; i < 10; i++ {
		observe(s2, 1, true)
		observe(s2, 2, true)
	}
	if lvl, _ := activityOf(s2, 1, DefaultActivityBand); lvl != strategy.ActivityMedium {
		t.Errorf("average node activity = %v, want MI", lvl)
	}
}

func TestActivityBoundaries(t *testing.T) {
	// av = 10 with band 0.2 → [8, 12] inclusive is medium.
	s := NewStore()
	for i := 0; i < 8; i++ {
		observe(s, 1, true)
	}
	for i := 0; i < 12; i++ {
		observe(s, 2, true)
	}
	if lvl, _ := activityOf(s, 1, DefaultActivityBand); lvl != strategy.ActivityMedium {
		t.Errorf("pf=8 with av=10 → %v, want MI (inclusive band)", lvl)
	}
	if lvl, _ := activityOf(s, 2, DefaultActivityBand); lvl != strategy.ActivityMedium {
		t.Errorf("pf=12 with av=10 → %v, want MI (inclusive band)", lvl)
	}
}

func TestActivitySingleKnownNodeIsMedium(t *testing.T) {
	s := NewStore()
	observe(s, 1, true)
	if lvl, known := activityOf(s, 1, DefaultActivityBand); !known || lvl != strategy.ActivityMedium {
		t.Errorf("sole known node activity = %v,%v, want MI,true", lvl, known)
	}
}

func TestActivityZeroForwards(t *testing.T) {
	// A source that never forwarded, among active peers, is low-activity.
	s := NewStore()
	observe(s, 1, false)
	for i := 0; i < 10; i++ {
		observe(s, 2, true)
	}
	if lvl, _ := activityOf(s, 1, DefaultActivityBand); lvl != strategy.ActivityLow {
		t.Errorf("zero-forward node activity = %v, want LO", lvl)
	}
}

// Property: every known rate is in [0,1] and the totals equal the count
// of known nodes and the sum of their pf counters.
func TestStoreInvariantsProperty(t *testing.T) {
	f := func(obs []bool, ids []uint8) bool {
		s := NewStore()
		n := len(obs)
		if len(ids) < n {
			return true
		}
		for i := 0; i < n; i++ {
			observe(s, network.NodeID(ids[i]%7), obs[i])
		}
		var known int
		var sum uint64
		for id := network.NodeID(0); id < 7; id++ {
			c := s.Counters(id)
			if c.Requests == 0 {
				continue
			}
			if rate := c.Rate(); rate < 0 || rate > 1 || c.Forwards > c.Requests {
				return false
			}
			known++
			sum += uint64(c.Forwards)
		}
		gotKnown, gotSum := s.Totals()
		return gotKnown == known && gotSum == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: trust level is monotone non-decreasing in the forwarding rate.
func TestTrustLevelMonotoneProperty(t *testing.T) {
	tab := DefaultTable()
	r := rng.New(3)
	for i := 0; i < 10000; i++ {
		a, b := r.Float64(), r.Float64()
		if a > b {
			a, b = b, a
		}
		if tab.Level(a) > tab.Level(b) {
			t.Fatalf("Level(%v)=%v > Level(%v)=%v", a, tab.Level(a), b, tab.Level(b))
		}
	}
}

func BenchmarkActivity(b *testing.B) {
	s := NewStore()
	for i := 0; i < 1000; i++ {
		observe(s, network.NodeID(i%50), i%3 != 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = activityOf(s, network.NodeID(i%50), DefaultActivityBand)
	}
}
