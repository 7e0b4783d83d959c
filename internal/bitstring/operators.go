package bitstring

import (
	"math"
	"math/bits"

	"adhocga/internal/rng"
)

// Genetic operators on bit strings. These are the mechanical pieces of §5:
// standard one-point crossover and uniform bit-flip mutation.
//
// Crossover writes its children into caller-owned vectors (the *Into
// forms), which is what the arena-reusing reproduction path needs: c and d
// must have the parents' length and may not alias a or b, and parents are
// never modified. Both operators work on whole uint64 words with
// mask-based splicing (SWAR) rather than per-bit loops; the scalar per-bit
// references they are pinned bit-identical against (*Ref) live in the
// package's tests. The RNG draw-order contract of both is documented in
// DESIGN.md §"RNG draw-order contract": MutateFlip keeps the historical
// one-draw-per-bit sequence (every engine golden pins it).

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
