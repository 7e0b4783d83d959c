package bitstring

import (
	"math"
	"math/bits"

	"adhocga/internal/rng"
)

// Genetic operators on bit strings. These are the mechanical pieces of §5:
// standard one-point crossover and uniform bit-flip mutation, plus the
// two-point and uniform variants used by the ablation benchmarks.
//
// Crossovers write their children into caller-owned vectors (the *Into
// forms), which is what the arena-reusing reproduction path needs: c and d
// must have the parents' length and may not alias a or b, and parents are
// never modified. All operators work on whole uint64 words with mask-based
// splicing (SWAR) rather than per-bit loops; scalar per-bit reference
// implementations are retained below (*Ref) and pinned bit-identical by
// the property and fuzz tests. The RNG draw-order contract of every
// randomized operator is documented in DESIGN.md §"RNG draw-order
// contract": MutateFlip keeps the historical one-draw-per-bit sequence
// (every engine golden pins it), while UniformCrossoverInto consumes one
// word-sized mask per 64 bits.

// OnePointCrossoverInto cuts both parents at the same point cut ∈
// [1, len-1] and exchanges the tails, writing the children into c and d.
// With cut outside that range the children are plain copies. It consumes
// no randomness.
func OnePointCrossoverInto(a, b, c, d Bits, cut int) {
	if a.n != b.n {
		panic("bitstring: crossover of unequal lengths")
	}
	c.copyFrom(a)
	d.copyFrom(b)
	if cut < 1 || cut >= a.n {
		return
	}
	swapBitRange(c.w, d.w, cut, a.n)
}

// RandomOnePointCrossoverInto performs OnePointCrossoverInto at a
// uniformly random cut point in [1, len-1]. Strings shorter than 2 bits
// are copied. Draw contract: exactly one IntRange draw for strings of
// ≥ 2 bits, none otherwise.
func RandomOnePointCrossoverInto(r *rng.Source, a, b, c, d Bits) {
	if a.n < 2 {
		c.copyFrom(a)
		d.copyFrom(b)
		return
	}
	OnePointCrossoverInto(a, b, c, d, r.IntRange(1, a.n-1))
}

// TwoPointCrossoverInto exchanges the segment [lo, hi) between the
// parents, writing the children into c and d. Out-of-order or
// out-of-range bounds are clamped.
func TwoPointCrossoverInto(a, b, c, d Bits, lo, hi int) {
	if a.n != b.n {
		panic("bitstring: crossover of unequal lengths")
	}
	c.copyFrom(a)
	d.copyFrom(b)
	if lo < 0 {
		lo = 0
	}
	if hi > a.n {
		hi = a.n
	}
	if lo < hi {
		swapBitRange(c.w, d.w, lo, hi)
	}
}

// RandomTwoPointCrossoverInto picks two random cut points and exchanges
// the middle segment. Draw contract: two Intn draws for strings of ≥ 2
// bits, none otherwise.
func RandomTwoPointCrossoverInto(r *rng.Source, a, b, c, d Bits) {
	if a.n < 2 {
		c.copyFrom(a)
		d.copyFrom(b)
		return
	}
	lo := r.Intn(a.n)
	hi := r.Intn(a.n + 1)
	if lo > hi {
		lo, hi = hi, lo
	}
	TwoPointCrossoverInto(a, b, c, d, lo, hi)
}

// UniformCrossoverInto swaps each position independently with probability
// 0.5, writing the children into c and d. Draw contract: one Uint64 mask
// per 64-bit word (⌈len/64⌉ draws); bit i%64 of mask i/64 decides
// position i. (Re-pinned from the historical one-Bool-per-bit sequence —
// no golden depended on it; see DESIGN.md.)
func UniformCrossoverInto(r *rng.Source, a, b, c, d Bits) {
	if a.n != b.n {
		panic("bitstring: crossover of unequal lengths")
	}
	c.copyFrom(a)
	d.copyFrom(b)
	for wi := range c.w {
		// Tail bits beyond n are zero in both children (maskTail
		// invariant), so swapping them under an unmasked draw is a no-op.
		x := (c.w[wi] ^ d.w[wi]) & r.Uint64()
		c.w[wi] ^= x
		d.w[wi] ^= x
	}
}

// MutateFlip flips each bit independently with probability p, in place,
// and returns the number of flipped bits.
//
// Draw contract (pinned by every engine golden): for 0 < p < 1 exactly one
// Uint64 draw per bit, in bit order; p ≤ 0 and p ≥ 1 consume no draws.
// The implementation accumulates flips into a per-word XOR mask and decides
// each draw with an exact integer threshold: u>>11 < ceil(p·2⁵³) holds iff
// Float64() < p, because float64(u>>11)·2⁻⁵³ and p·2⁵³ are both exact.
func (b Bits) MutateFlip(r *rng.Source, p float64) int {
	if p <= 0 || b.n == 0 {
		return 0
	}
	if p >= 1 {
		for wi := range b.w {
			b.w[wi] = ^b.w[wi]
		}
		b.maskTail()
		return b.n
	}
	threshold := uint64(math.Ceil(p * (1 << 53)))
	flips := 0
	rem := b.n
	for wi := range b.w {
		width := 64
		if rem < 64 {
			width = rem
		}
		rem -= width
		if mask := r.BitMask(width, threshold); mask != 0 {
			b.w[wi] ^= mask
			flips += bits.OnesCount64(mask)
		}
	}
	return flips
}

// swapBitRange exchanges bits [lo, hi) between the equal-length word
// vectors x and y with mask-based word splicing. Callers guarantee
// 0 ≤ lo < hi ≤ 64·len(x).
func swapBitRange(x, y []uint64, lo, hi int) {
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) % 64)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) % 64))
	if loW == hiW {
		swapMasked(x, y, loW, loMask&hiMask)
		return
	}
	swapMasked(x, y, loW, loMask)
	for wi := loW + 1; wi < hiW; wi++ {
		x[wi], y[wi] = y[wi], x[wi]
	}
	swapMasked(x, y, hiW, hiMask)
}

// swapMasked exchanges the masked bits of words x[wi] and y[wi].
func swapMasked(x, y []uint64, wi int, mask uint64) {
	d := (x[wi] ^ y[wi]) & mask
	x[wi] ^= d
	y[wi] ^= d
}

// copyFrom overwrites b with src's bits. Lengths must match.
func (b Bits) copyFrom(src Bits) {
	if b.n != src.n {
		panic("bitstring: copy between unequal lengths")
	}
	copy(b.w, src.w)
}

// CopyFrom overwrites b with src's bits in place, the reuse primitive of
// the arena reproduction path. Lengths must match; it panics otherwise.
func (b Bits) CopyFrom(src Bits) { b.copyFrom(src) }

// Scalar per-bit reference implementations. These are the semantics the
// SWAR operators above are pinned against (operators_test.go property
// tests, FuzzOperators): same inputs and — for the randomized ones — the
// same draw contract, bit-identical outputs. They are exported for the
// benchmarks' before/after comparison but carry no compatibility promise.

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

// TwoPointCrossoverRef is the per-bit reference for TwoPointCrossoverInto.
func TwoPointCrossoverRef(a, b Bits, lo, hi int) (Bits, Bits) {
	if a.n != b.n {
		panic("bitstring: crossover of unequal lengths")
	}
	if lo < 0 {
		lo = 0
	}
	if hi > a.n {
		hi = a.n
	}
	c, d := a.Clone(), b.Clone()
	for i := lo; i < hi; i++ {
		c.Set(i, b.Get(i))
		d.Set(i, a.Get(i))
	}
	return c, d
}

// UniformCrossoverRef is the per-bit reference for UniformCrossoverInto
// under the same word-mask draw contract: one Uint64 per word, bit i%64 decides
// position i.
func UniformCrossoverRef(r *rng.Source, a, b Bits) (Bits, Bits) {
	if a.n != b.n {
		panic("bitstring: crossover of unequal lengths")
	}
	c, d := a.Clone(), b.Clone()
	for wi := 0; wi < len(c.w); wi++ {
		mask := r.Uint64()
		for j := 0; j < 64; j++ {
			i := wi*64 + j
			if i >= a.n {
				break
			}
			if mask>>uint(j)&1 == 1 {
				c.Set(i, b.Get(i))
				d.Set(i, a.Get(i))
			}
		}
	}
	return c, d
}

// MutateFlipRef is the per-bit reference for MutateFlip: the historical
// one-Bool-per-bit loop, draw-identical to MutateFlip.
func (b Bits) MutateFlipRef(r *rng.Source, p float64) int {
	flips := 0
	for i := 0; i < b.n; i++ {
		if r.Bool(p) {
			b.Flip(i)
			flips++
		}
	}
	return flips
}
