// Package network models the abstract ad hoc network of the paper's game
// (§4.1): node identities, source-routed paths, and the random path
// generation process of §6.1 (hop-count distributions of Table 2, alternate
// path counts of Table 3, best-reputation path selection of §3.1).
//
// The paper deliberately abstracts away radio propagation and mobility:
// "All intermediate nodes are chosen randomly. This simulates a network
// with a high mobility level, in which topology changes very fast." The
// package therefore generates paths by sampling rather than by maintaining
// a geometric topology.
package network

import (
	"fmt"

	"adhocga/internal/rng"
)

// NodeID identifies a node (player) within one tournament. IDs are dense
// small integers assigned by the tournament runner.
type NodeID int

// Path is a source route: the source, the ordered intermediate nodes, and
// the destination. The paper counts path length in hops; a path with h
// hops has h-1 intermediates (source → i1 → … → i(h-1) → destination).
type Path struct {
	Src           NodeID
	Dst           NodeID
	Intermediates []NodeID
}

// Hops returns the hop count of the path (number of edges).
func (p Path) Hops() int { return len(p.Intermediates) + 1 }

// String renders the path like "3 -> 7 -> 1 -> 9".
func (p Path) String() string {
	s := fmt.Sprintf("%d", p.Src)
	for _, n := range p.Intermediates {
		s += fmt.Sprintf(" -> %d", n)
	}
	return s + fmt.Sprintf(" -> %d", p.Dst)
}

// Contains reports whether id appears among the intermediates.
func (p Path) Contains(id NodeID) bool {
	for _, n := range p.Intermediates {
		if n == id {
			return true
		}
	}
	return false
}

// MinHops and MaxHops bound the paper's path lengths: "The number of hops
// from the source node to the destination varies from 2 to 10" (§6.1).
const (
	MinHops = 2
	MaxHops = 10
)

// LengthDist is a distribution over hop counts MinHops..MaxHops.
type LengthDist struct {
	cat *rng.Categorical // outcome i ↦ MinHops+i
}

// NewLengthDist builds a hop-count distribution from a probability per hop
// count. Probabilities must be non-negative and sum to approximately 1.
func NewLengthDist(probs map[int]float64) (LengthDist, error) {
	weights := make([]float64, MaxHops-MinHops+1)
	total := 0.0
	for hops, p := range probs {
		if hops < MinHops || hops > MaxHops {
			return LengthDist{}, fmt.Errorf("network: hop count %d outside [%d,%d]", hops, MinHops, MaxHops)
		}
		if p < 0 {
			return LengthDist{}, fmt.Errorf("network: negative probability for %d hops", hops)
		}
		weights[hops-MinHops] = p
		total += p
	}
	if total < 0.999 || total > 1.001 {
		return LengthDist{}, fmt.Errorf("network: hop probabilities sum to %v, want 1", total)
	}
	cat, err := rng.NewCategorical(weights)
	if err != nil {
		return LengthDist{}, err
	}
	return LengthDist{cat: cat}, nil
}

// Sample draws a hop count.
func (d LengthDist) Sample(r *rng.Source) int { return d.hops(r.Uint64()) }

// hops is the hop count Sample picks when the engine step yields draw.
func (d LengthDist) hops(draw uint64) int { return MinHops + d.cat.Outcome(draw) }

// Prob returns the probability of the given hop count.
func (d LengthDist) Prob(hops int) float64 {
	if hops < MinHops || hops > MaxHops {
		return 0
	}
	return d.cat.Prob(hops - MinHops)
}

// The paper's tables are built once and shared: a Categorical is immutable,
// and building one costs a threshold search per outcome.
var (
	spLengths = mustLengthDist(map[int]float64{
		2: 0.20, 3: 0.30, 4: 0.30,
		5: 0.05, 6: 0.05, 7: 0.05, 8: 0.05,
	})
	lpLengths = mustLengthDist(map[int]float64{
		2: 0.10, 3: 0.10, 4: 0.10,
		5: 0.10, 6: 0.10, 7: 0.10, 8: 0.10,
		9: 0.15, 10: 0.15,
	})
	table3 = AlternatesDist{
		short: rng.MustCategorical([]float64{0.5, 0.3, 0.2}),
		mid:   rng.MustCategorical([]float64{0.6, 0.25, 0.15}),
		long:  rng.MustCategorical([]float64{0.8, 0.15, 0.05}),
	}
)

func mustLengthDist(probs map[int]float64) LengthDist {
	d, err := NewLengthDist(probs)
	if err != nil {
		panic(err)
	}
	return d
}

// ShorterPathLengths returns the paper's "shorter paths" (SP) mode hop
// distribution (Table 2, left column, expanded per hop count): 2 hops 0.2;
// 3–4 hops 0.3 each; 5–8 hops 0.05 each; 9–10 hops never.
func ShorterPathLengths() LengthDist { return spLengths }

// LongerPathLengths returns the paper's "longer paths" (LP) mode hop
// distribution (Table 2, right column): 2 hops 0.1; 3–4 hops 0.1 each;
// 5–8 hops 0.1 each; 9–10 hops 0.15 each.
func LongerPathLengths() LengthDist { return lpLengths }

// MixedPathLengths returns a hop-count distribution that linearly blends
// the SP and LP distributions of Table 2: alpha 0 is exactly
// ShorterPathLengths, alpha 1 exactly LongerPathLengths, and values in
// between shift probability mass toward longer routes. The dynamics layer
// (internal/dynamics) drives alpha as a seeded random walk to model link
// rewiring under mobility — as links churn, the route-length statistics of
// the whole network drift between the paper's two regimes. Alpha outside
// [0,1] is clamped.
func MixedPathLengths(alpha float64) LengthDist {
	if alpha <= 0 {
		return ShorterPathLengths()
	}
	if alpha >= 1 {
		return LongerPathLengths()
	}
	probs := make(map[int]float64, MaxHops-MinHops+1)
	for h := MinHops; h <= MaxHops; h++ {
		if p := (1-alpha)*spLengths.Prob(h) + alpha*lpLengths.Prob(h); p > 0 {
			probs[h] = p
		}
	}
	return mustLengthDist(probs) // a blend of two valid distributions is valid
}

// MixedPaths bundles the blended hop distribution with the Table 3
// alternates into a PathMode named "MIX(alpha)".
func MixedPaths(alpha float64) PathMode {
	return PathMode{
		Name:       fmt.Sprintf("MIX(%.3f)", alpha),
		Lengths:    MixedPathLengths(alpha),
		Alternates: Table3Alternates(),
	}
}

// ModeAlpha returns the SP↔LP mix parameter a mode's name represents:
// 0 for SP, 1 for LP, the embedded value for MixedPaths modes. The
// boolean is false for custom modes, whose position on the SP↔LP axis is
// unknowable from the name — callers seed their own default then.
func ModeAlpha(mode PathMode) (float64, bool) {
	switch mode.Name {
	case "SP":
		return 0, true
	case "LP":
		return 1, true
	}
	var alpha float64
	if n, err := fmt.Sscanf(mode.Name, "MIX(%f)", &alpha); n == 1 && err == nil && alpha >= 0 && alpha <= 1 {
		return alpha, true
	}
	return 0, false
}

// MaxAlternatePaths is the largest number of alternate routes Table 3
// assigns positive probability.
const MaxAlternatePaths = 3

// AlternatesDist gives the distribution of the number of available
// alternate paths as a function of hop count (Table 3). The paper's rows
// cover 2–3, 4–6 and 7–8 hops; the 7–8 row is extended to 9–10 (used only
// by the longer-paths mode, which the paper's Table 3 omits).
type AlternatesDist struct {
	short *rng.Categorical // 2-3 hops
	mid   *rng.Categorical // 4-6 hops
	long  *rng.Categorical // 7-10 hops
}

// Table3Alternates returns the paper's alternate-path distribution.
func Table3Alternates() AlternatesDist { return table3 }

// Sample draws the number of available paths (1..3) for the given hop
// count.
func (d AlternatesDist) Sample(r *rng.Source, hops int) int {
	return d.count(r.Uint64(), hops)
}

// count is the number of paths Sample picks when the engine step yields
// draw.
func (d AlternatesDist) count(draw uint64, hops int) int {
	return d.row(hops).Outcome(draw) + 1
}

// Prob returns the probability of exactly n alternate paths at the given
// hop count.
func (d AlternatesDist) Prob(hops, n int) float64 {
	if n < 1 || n > MaxAlternatePaths {
		return 0
	}
	return d.row(hops).Prob(n - 1)
}

func (d AlternatesDist) row(hops int) *rng.Categorical {
	switch {
	case hops <= 3:
		return d.short
	case hops <= 6:
		return d.mid
	default:
		return d.long
	}
}

// PathMode bundles a named hop-count distribution with an alternate-path
// distribution: the paper's SP and LP evaluation modes (§6.1).
type PathMode struct {
	Name       string
	Lengths    LengthDist
	Alternates AlternatesDist
}

// ShorterPaths returns the SP mode used by evaluation cases 1–3.
func ShorterPaths() PathMode {
	return PathMode{Name: "SP", Lengths: ShorterPathLengths(), Alternates: Table3Alternates()}
}

// LongerPaths returns the LP mode used by evaluation case 4.
func LongerPaths() PathMode {
	return PathMode{Name: "LP", Lengths: LongerPathLengths(), Alternates: Table3Alternates()}
}
