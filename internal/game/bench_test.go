package game

import (
	"testing"

	"adhocga/internal/network"
	"adhocga/internal/strategy"
)

// benchBoard seats a source plus k intermediates with mixed behavior and
// warms the board so the benchmark measures the steady state (all
// observation records already exist).
func benchBoard(k int) (*Board, Config) {
	cfg := DefaultConfig()
	src := NewNormal(0, strategy.AllForward())
	inters := make([]*Player, k)
	for i := range inters {
		s := strategy.AllForward()
		if i%3 == 2 {
			s = strategy.ForwardAtOrAbove(strategy.Trust1, strategy.Forward)
		}
		inters[i] = NewNormal(network.NodeID(i+1), s)
	}
	b := seat(src, inters)
	for i := 0; i < 32; i++ {
		playSeated(b, k, &cfg)
	}
	return b, cfg
}

// TestPlayZeroAllocsSteadyState pins the board guarantee: a game performs
// no heap allocations at all — no map inserts, no closures, no scratch
// growth.
func TestPlayZeroAllocsSteadyState(t *testing.T) {
	b, cfg := benchBoard(5)
	paths := chain(5)
	allocs := testing.AllocsPerRun(1000, func() {
		b.Play(0, paths, nil, &cfg, nil)
	})
	if allocs != 0 {
		t.Errorf("steady-state Play allocates %v times per game, want 0", allocs)
	}
}

// benchPlay measures one steady-state game on a k-intermediate path.
func benchPlay(b *testing.B, k int) {
	board, cfg := benchBoard(k)
	paths := chain(k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		board.Play(0, paths, nil, &cfg, nil)
	}
}

// BenchmarkPlay measures one steady-state game on a 5-intermediate path:
// decisions, payoffs, and the O(k²) reputation updates, 0 allocs/op.
func BenchmarkPlay(b *testing.B) { benchPlay(b, 5) }

// BenchmarkPlayLongPath is the same measurement at the paper's maximum path
// length (9 intermediates = 10 hops), where the k² observation loop
// dominates.
func BenchmarkPlayLongPath(b *testing.B) { benchPlay(b, 9) }
