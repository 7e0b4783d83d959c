package bitstring

import "adhocga/internal/rng"

// Scalar per-bit reference implementations. These are the semantics the
// SWAR operators are pinned against (operators_swar_test.go, FuzzOperators):
// same inputs and, for the randomized ones, the same draw contract,
// bit-identical outputs.

// OnePointCrossoverRef is the per-bit reference for OnePointCrossoverInto.
func OnePointCrossoverRef(a, b Bits, cut int) (Bits, Bits) {
	if a.n != b.n {
		panic("bitstring: crossover of unequal lengths")
	}
	c, d := a.Clone(), b.Clone()
	if cut < 1 || cut >= a.n {
		return c, d
	}
	for i := cut; i < a.n; i++ {
		c.Set(i, b.Get(i))
		d.Set(i, a.Get(i))
	}
	return c, d
}

// MutateFlipRef is the per-bit reference for MutateFlip: the historical
// one-Bool-per-bit loop, draw-identical to MutateFlip.
func (b Bits) MutateFlipRef(r *rng.Source, p float64) int {
	flips := 0
	for i := 0; i < b.n; i++ {
		if r.Bool(p) {
			b.Set(i, !b.Get(i))
			flips++
		}
	}
	return flips
}
