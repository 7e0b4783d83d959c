package strategy

// Analytic views of strategies, supporting the paper's §6.3 discussion of
// what the evolved populations look like: how a strategy's generosity
// relates to the source's trust level, and which behavioral family it
// belongs to.

// ForwardFractionAt returns the fraction of the three activity cells at
// the given trust level that forward.
func (s Strategy) ForwardFractionAt(t TrustLevel) float64 {
	fwd := 0
	for a := ActivityLevel(0); a < NumActivityLevels; a++ {
		if s.Decide(t, a) == Forward {
			fwd++
		}
	}
	return float64(fwd) / float64(NumActivityLevels)
}

// TrustMonotonicity measures how consistently the strategy forwards more
// for higher trust: over all adjacent trust-level pairs and activity
// levels, the fraction of cells whose decision is non-decreasing in trust
// (D→D, D→F, F→F count; F→D does not). 1.0 means perfectly trust-monotone
// — the shape the paper's evolved strategies converge to (trust 3 row
// "111" with stricter rows below).
func (s Strategy) TrustMonotonicity() float64 {
	ok, total := 0, 0
	for a := ActivityLevel(0); a < NumActivityLevels; a++ {
		for t := TrustLevel(0); t < NumTrustLevels-1; t++ {
			lo := s.Decide(t, a)
			hi := s.Decide(t+1, a)
			if !(lo == Forward && hi == Discard) {
				ok++
			}
			total++
		}
	}
	return float64(ok) / float64(total)
}

// Category is a coarse behavioral family.
type Category string

// The behavioral families used by Classify.
const (
	// CategoryAltruist forwards in (almost) every situation.
	CategoryAltruist Category = "altruist"
	// CategoryDefector discards in (almost) every situation.
	CategoryDefector Category = "defector"
	// CategoryReciprocal is generous toward trusted sources and strict
	// toward untrusted ones — the enforcement shape the paper's GA finds.
	CategoryReciprocal Category = "reciprocal"
	// CategoryContrarian forwards more for LOW trust than for high — a
	// shape that cannot enforce cooperation.
	CategoryContrarian Category = "contrarian"
	// CategoryMixed is anything else.
	CategoryMixed Category = "mixed"
)

// Classify assigns a strategy to a behavioral family by its per-trust
// forwarding profile.
func (s Strategy) Classify() Category {
	coop := s.Cooperativeness()
	switch {
	case coop >= 12.0/13.0:
		return CategoryAltruist
	case coop <= 1.0/13.0:
		return CategoryDefector
	}
	low := float64((s.ForwardFractionAt(Trust0) + s.ForwardFractionAt(Trust1)) / 2)
	high := float64((s.ForwardFractionAt(Trust2) + s.ForwardFractionAt(Trust3)) / 2)
	switch {
	case high >= low+0.5:
		return CategoryReciprocal
	case low >= high+0.5:
		return CategoryContrarian
	default:
		return CategoryMixed
	}
}

// CategoryCensus counts the behavioral families in a census.
func (c *Census) CategoryCensus() map[Category]float64 {
	out := make(map[Category]float64)
	if c.total == 0 {
		return out
	}
	for _, r := range c.rows {
		out[Strategy{p: r.g}.Classify()] += float64(r.n)
	}
	for cat := range out {
		out[cat] /= float64(c.total)
	}
	return out
}

// MeanTrustMonotonicity returns the occurrence-weighted mean
// TrustMonotonicity across the census.
func (c *Census) MeanTrustMonotonicity() float64 {
	if c.total == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range c.rows {
		sum += float64(Strategy{p: r.g}.TrustMonotonicity() * float64(r.n))
	}
	return sum / float64(c.total)
}
