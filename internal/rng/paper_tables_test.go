package rng_test

import (
	"fmt"
	"testing"

	"adhocga/internal/network"
	"adhocga/internal/rng"
)

// TestPaperTablesThresholdsExact covers every categorical table the
// simulator builds — Table 2's SP and LP hop counts, Table 3's three
// alternate-path rows, and the SP↔LP blends MixedPathLengths builds for
// the rewiring walk — with the exactness check, each rebuilt from the
// weights the network package feeds NewCategorical. The hop-count tables
// are cross-checked against that package's probabilities; Table 3's rows
// are pinned to the same weights by the network package's own tests.
func TestPaperTablesThresholdsExact(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	sp, lp := network.ShorterPathLengths(), network.LongerPathLengths()
	hopWeights := func(prob func(h int) float64) []float64 {
		w := make([]float64, network.MaxHops-network.MinHops+1)
		for h := network.MinHops; h <= network.MaxHops; h++ {
			w[h-network.MinHops] = prob(h)
		}
		return w
	}
	type table struct {
		weights []float64
		prob    func(i int) float64 // nil, or the network package's view of outcome i
	}
	hops := func(d network.LengthDist) func(int) float64 {
		return func(i int) float64 { return d.Prob(i + network.MinHops) }
	}
	tables := map[string]table{
		"SP":       {[]float64{0.20, 0.30, 0.30, 0.05, 0.05, 0.05, 0.05, 0, 0}, hops(sp)},
		"LP":       {[]float64{0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.15, 0.15}, hops(lp)},
		"T3-2..3":  {[]float64{0.5, 0.3, 0.2}, nil},
		"T3-4..6":  {[]float64{0.6, 0.25, 0.15}, nil},
		"T3-7..10": {[]float64{0.8, 0.15, 0.05}, nil},
	}
	for a := 1; a <= 9; a++ {
		alpha := float64(a) / 10
		w := hopWeights(func(h int) float64 { return (1-alpha)*sp.Prob(h) + alpha*lp.Prob(h) })
		tables[fmt.Sprintf("MIX(%.1f)", alpha)] = table{w, hops(network.MixedPathLengths(alpha))}
	}
	for name, tb := range tables {
		c := rng.MustCategorical(tb.weights)
		for i := 0; tb.prob != nil && i < len(tb.weights); i++ {
			if got, want := c.Prob(i), tb.prob(i); got != want {
				t.Fatalf("%s: rebuilt outcome %d has probability %v, the simulator's table %v", name, i, got, want)
			}
		}
		rng.CheckExact(t, name, c, draws)
	}
}
