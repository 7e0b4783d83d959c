package trust

import (
	"math"
	"testing"
	"testing/quick"

	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
)

func TestStoreObserveAndRates(t *testing.T) {
	s := NewStore()
	if s.Known(1) {
		t.Error("fresh store knows node 1")
	}
	if _, known := s.ForwardingRate(1); known {
		t.Error("fresh store has a rate for node 1")
	}
	s.Observe(1, true)
	s.Observe(1, true)
	s.Observe(1, false)
	rate, known := s.ForwardingRate(1)
	if !known {
		t.Fatal("node 1 should be known")
	}
	if math.Abs(rate-2.0/3.0) > 1e-12 {
		t.Errorf("rate = %v, want 2/3", rate)
	}
	if s.Requests(1) != 3 || s.Forwards(1) != 2 {
		t.Errorf("ps=%d pf=%d", s.Requests(1), s.Forwards(1))
	}
	if s.Requests(2) != 0 || s.Forwards(2) != 0 {
		t.Error("unknown node has nonzero counters")
	}
}

func TestStoreReset(t *testing.T) {
	s := NewStore()
	s.Observe(1, true)
	s.Observe(2, false)
	s.Reset()
	if s.KnownCount() != 0 {
		t.Error("Reset did not clear records")
	}
	if _, any := s.MeanForwards(); any {
		t.Error("Reset did not clear the forwards sum")
	}
	// Store must be reusable after Reset.
	s.Observe(3, true)
	if rate, known := s.ForwardingRate(3); !known || rate != 1 {
		t.Error("store unusable after Reset")
	}
}

func TestMeanForwards(t *testing.T) {
	s := NewStore()
	if _, ok := s.MeanForwards(); ok {
		t.Error("empty store reports a mean")
	}
	// Node 1: 4 forwards; node 2: 0 forwards; node 3: 2 forwards → av = 2.
	for i := 0; i < 4; i++ {
		s.Observe(1, true)
	}
	s.Observe(2, false)
	s.Observe(3, true)
	s.Observe(3, true)
	av, ok := s.MeanForwards()
	if !ok || math.Abs(av-2) > 1e-12 {
		t.Errorf("MeanForwards = %v,%v, want 2,true", av, ok)
	}
}

func TestKnownNodesSorted(t *testing.T) {
	s := NewStore()
	for _, id := range []network.NodeID{5, 1, 3} {
		s.Observe(id, true)
	}
	ids := s.KnownNodes()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 3 || ids[2] != 5 {
		t.Errorf("KnownNodes = %v", ids)
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
	if _, known := tab.LevelOf(s, 7); known {
		t.Error("LevelOf claims knowledge of unknown node")
	}
	// 19/20 forwards → 0.95 → trust 3 (paper's worked example).
	for i := 0; i < 19; i++ {
		s.Observe(7, true)
	}
	s.Observe(7, false)
	lvl, known := tab.LevelOf(s, 7)
	if !known || lvl != strategy.Trust3 {
		t.Errorf("LevelOf = %v,%v, want trust3,true", lvl, known)
	}
}

func TestActivityOf(t *testing.T) {
	s := NewStore()
	if _, known := ActivityOf(s, 1, DefaultActivityBand); known {
		t.Error("activity known for unknown source")
	}
	// Build av = 10 over two nodes: node 1 pf=16, node 2 pf=4.
	for i := 0; i < 16; i++ {
		s.Observe(1, true)
	}
	for i := 0; i < 4; i++ {
		s.Observe(2, true)
	}
	// av = 10; band = [8,12]. Node 1 (16) is high, node 2 (4) is low.
	if lvl, _ := ActivityOf(s, 1, DefaultActivityBand); lvl != strategy.ActivityHigh {
		t.Errorf("node 1 activity = %v, want HI", lvl)
	}
	if lvl, _ := ActivityOf(s, 2, DefaultActivityBand); lvl != strategy.ActivityLow {
		t.Errorf("node 2 activity = %v, want LO", lvl)
	}
	// A node exactly at the average is medium.
	s2 := NewStore()
	for i := 0; i < 10; i++ {
		s2.Observe(1, true)
	}
	for i := 0; i < 10; i++ {
		s2.Observe(2, true)
	}
	if lvl, _ := ActivityOf(s2, 1, DefaultActivityBand); lvl != strategy.ActivityMedium {
		t.Errorf("average node activity = %v, want MI", lvl)
	}
}

func TestActivityBoundaries(t *testing.T) {
	// av = 10 with band 0.2 → [8, 12] inclusive is medium.
	s := NewStore()
	for i := 0; i < 8; i++ {
		s.Observe(1, true)
	}
	for i := 0; i < 12; i++ {
		s.Observe(2, true)
	}
	// av = (8+12)/2 = 10.
	if lvl, _ := ActivityOf(s, 1, DefaultActivityBand); lvl != strategy.ActivityMedium {
		t.Errorf("pf=8 with av=10 → %v, want MI (inclusive band)", lvl)
	}
	if lvl, _ := ActivityOf(s, 2, DefaultActivityBand); lvl != strategy.ActivityMedium {
		t.Errorf("pf=12 with av=10 → %v, want MI (inclusive band)", lvl)
	}
}

func TestActivitySingleKnownNodeIsMedium(t *testing.T) {
	s := NewStore()
	s.Observe(1, true)
	if lvl, known := ActivityOf(s, 1, DefaultActivityBand); !known || lvl != strategy.ActivityMedium {
		t.Errorf("sole known node activity = %v,%v, want MI,true", lvl, known)
	}
}

func TestActivityZeroForwards(t *testing.T) {
	// A source that never forwarded, among active peers, is low-activity.
	s := NewStore()
	s.Observe(1, false)
	for i := 0; i < 10; i++ {
		s.Observe(2, true)
	}
	if lvl, _ := ActivityOf(s, 1, DefaultActivityBand); lvl != strategy.ActivityLow {
		t.Errorf("zero-forward node activity = %v, want LO", lvl)
	}
}

func TestPathRatesFeedPathRating(t *testing.T) {
	s := NewStore()
	s.Observe(1, true) // rate 1.0
	s.Observe(2, false)
	s.Observe(2, true) // rate 0.5
	p := network.Path{Src: 0, Dst: 9, Intermediates: []network.NodeID{1, 2, 3}}
	// 1.0 * 0.5 * 0.5(unknown default) = 0.25; node 3 is beyond the dense
	// view and node 0 is inside it but unobserved — both rate UnknownRate.
	if got := network.RatePath(p, s.PathRates()); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("path rating via PathRates = %v, want 0.25", got)
	}
	if r := s.PathRates()[0]; r != network.UnknownRate {
		t.Errorf("unobserved in-range node rates %v, want UnknownRate", r)
	}
}

// TestRatePathsMatchesTwoWalkForm pins the documented equivalence: the
// fused RatePaths walk and the PathRates + network.RatePath two-walk form
// produce bit-identical ratings, including for intermediates that are
// unknown, out of the dense range, or still dirty.
func TestRatePathsMatchesTwoWalkForm(t *testing.T) {
	build := func() *Store {
		s := NewStore()
		s.Observe(1, true) // rate 1.0
		s.Observe(2, false)
		s.Observe(2, true) // rate 0.5
		s.Observe(4, true)
		s.Observe(4, false)
		s.Observe(4, false) // rate 1/3
		return s
	}
	paths := []network.Path{
		{Src: 0, Dst: 9, Intermediates: []network.NodeID{1, 2}},
		{Src: 0, Dst: 9, Intermediates: []network.NodeID{2, 4, 7}}, // 7: beyond the dense view
		{Src: 0, Dst: 9, Intermediates: []network.NodeID{0}},       // in range, never observed
		{Src: 0, Dst: 9, Intermediates: nil},                       // empty product = 1
	}

	// Two-walk form on one store…
	twoWalk := build()
	rates := twoWalk.PathRates()
	want := make([]float64, len(paths))
	for i, p := range paths {
		want[i] = network.RatePath(p, rates)
	}
	// …fused walk on an identically-built fresh store, so both start from
	// the same dirty state.
	fused := build()
	got := fused.RatePaths(paths, nil)
	for i := range paths {
		if got[i] != want[i] {
			t.Errorf("path %d: fused %v, two-walk %v", i, got[i], want[i])
		}
	}
	if got[0] != 0.5 || got[3] != 1.0 {
		t.Errorf("ratings %v: want path0 1.0*0.5, empty path 1.0", got)
	}

	// A caller-owned ratings slice with capacity is reused, not
	// reallocated.
	buf := make([]float64, 0, len(paths))
	if out := fused.RatePaths(paths, buf); &out[0] != &buf[:1][0] {
		t.Error("RatePaths reallocated despite sufficient capacity")
	}
}

func TestTrustTableRoundTrip(t *testing.T) {
	if got := NewStore().TrustTable(); got != DefaultTable() {
		t.Errorf("TrustTable() = %+v, want the default table", got)
	}
}

// Property: ForwardingRate is always in [0,1] and MeanForwards equals the
// mean of per-node pf counters.
func TestStoreInvariantsProperty(t *testing.T) {
	f := func(obs []bool, ids []uint8) bool {
		s := NewStore()
		n := len(obs)
		if len(ids) < n {
			return true
		}
		for i := 0; i < n; i++ {
			s.Observe(network.NodeID(ids[i]%7), obs[i])
		}
		var sum float64
		for _, id := range s.KnownNodes() {
			rate, known := s.ForwardingRate(id)
			if !known || rate < 0 || rate > 1 {
				return false
			}
			if s.Forwards(id) > s.Requests(id) {
				return false
			}
			sum += float64(s.Forwards(id))
		}
		if s.KnownCount() > 0 {
			av, ok := s.MeanForwards()
			if !ok || math.Abs(av-sum/float64(s.KnownCount())) > 1e-9 {
				return false
			}
		}
		return true
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

func BenchmarkObserve(b *testing.B) {
	s := NewStore()
	for i := 0; i < b.N; i++ {
		s.Observe(network.NodeID(i%50), i%3 != 0)
	}
}

func BenchmarkForwardingRate(b *testing.B) {
	s := NewStore()
	for i := 0; i < 1000; i++ {
		s.Observe(network.NodeID(i%50), i%3 != 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.ForwardingRate(network.NodeID(i % 50))
	}
}

func BenchmarkActivityOf(b *testing.B) {
	s := NewStore()
	for i := 0; i < 1000; i++ {
		s.Observe(network.NodeID(i%50), i%3 != 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ActivityOf(s, network.NodeID(i%50), DefaultActivityBand)
	}
}
