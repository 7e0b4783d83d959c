// Package rng provides a small, deterministic, splittable pseudo-random
// number generator and the discrete distributions used by the ad hoc
// network simulator.
//
// Determinism matters here: the paper's experiments are averages over 60
// independent repetitions, and reproducing a table requires replaying the
// exact stream of random path lengths, destinations and mutations for a
// given seed. The standard library's math/rand/v2 is deterministic too,
// but offers no principled way to derive independent child streams for
// parallel replications; Source.Split fills that gap.
//
// The core generator is xoshiro256** seeded through SplitMix64, the
// combination recommended by Blackman and Vigna. It is not
// cryptographically secure and must never be used for security purposes.
package rng

import "math/bits"

// Xoshiro is the xoshiro256** engine state as a plain value: the one
// place the generator's step is defined. Source wraps it; hot loops that
// make many draws copy it into a local with Source.Engine, step the local,
// and store it back with Source.SetEngine, so the four state words stay in
// registers for the whole loop instead of round-tripping through memory on
// every draw.
//
// The methods take and return the state by value. A four-word struct is
// register-allocatable only while its address is never taken, and a
// pointer-receiver method would take it; Next and Bounded are small enough
// to inline (TestEngineStepInlines pins this), so a call such as
// x, v = x.Next() compiles to the bare engine arithmetic.
type Xoshiro struct {
	s0, s1, s2, s3 uint64
}

// Next advances the engine one step and returns the new state together
// with the next 64 uniformly distributed bits.
func (x Xoshiro) Next() (Xoshiro, uint64) {
	s1 := x.s1
	x.s2 ^= x.s0
	x.s3 ^= s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= s1 << 17
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return x, bits.RotateLeft64(s1*5, 7) * 9
}

// Bounded returns the advanced state and a uniformly distributed value in
// [0, n), n > 0, using Lemire's nearly-divisionless method: a draw whose
// low product word falls below (2⁶⁴ − n) mod n is rejected and redrawn.
// That threshold is less than n, so the first compare settles nearly every
// draw and the division runs only on the rare low-word hit. Bounded(0)
// returns 0 without rejecting; Source.Uint64n guards it.
func (x Xoshiro) Bounded(n uint64) (_ Xoshiro, hi uint64) {
	for {
		var lo uint64
		x, hi = x.Next()
		hi, lo = bits.Mul64(hi, n)
		if lo >= n || lo >= -n%n {
			return x, hi
		}
	}
}

// Source is a deterministic pseudo-random number generator. It is NOT safe
// for concurrent use; give each goroutine its own Source via Split.
//
// The zero value is invalid; use New.
type Source struct {
	x Xoshiro
}

// Engine returns a copy of the engine state. Drawing from the copy and
// handing it back with SetEngine replays exactly the stream the same
// draws made through the Source would have produced.
func (s *Source) Engine() Xoshiro { return s.x }

// SetEngine replaces the engine state, typically with a copy taken by
// Engine and advanced since.
func (s *Source) SetEngine(x Xoshiro) { s.x = x }

// splitmix64 advances the given state and returns the next output. It is
// used to expand seeds and to derive child streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given seed. Two Sources built from
// the same seed produce identical streams.
func New(seed uint64) *Source {
	var s Source
	s.Reseed(seed)
	return &s
}

// Reseed resets the Source to the state it would have immediately after
// New(seed).
func (s *Source) Reseed(seed uint64) {
	sm := seed
	x := &s.x
	x.s0 = splitmix64(&sm)
	x.s1 = splitmix64(&sm)
	x.s2 = splitmix64(&sm)
	x.s3 = splitmix64(&sm)
	// xoshiro must not start at the all-zero state; SplitMix64 expansion
	// cannot produce it for any seed, but guard anyway.
	if x.s0|x.s1|x.s2|x.s3 == 0 {
		x.s0 = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() (v uint64) {
	s.x, v = s.x.Next()
	return v
}

// Split derives a new Source whose future stream is statistically
// independent from the parent's. Splitting advances the parent. It is the
// supported way to hand generators to parallel replications: split once in
// the coordinating goroutine, then move each child to its worker.
func (s *Source) Split() *Source {
	// Mix two parent outputs through SplitMix64 so that child streams do
	// not share the parent's linear engine trajectory.
	seed := s.Uint64()
	mix := seed ^ bits.RotateLeft64(s.Uint64(), 31)
	return New(splitmix64(&mix))
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed uint64 in [0, n) using Lemire's
// nearly-divisionless method (see Xoshiro.Bounded). It panics if n == 0.
func (s *Source) Uint64n(n uint64) (v uint64) {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	s.x, v = s.x.Bounded(n)
	return v
}

// IntRange returns a uniformly distributed int in [lo, hi] inclusive.
// It panics if hi < lo.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange called with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high bits give the dyadic uniform on [0,1), rounded so an inlined caller cannot fuse it.
	return float64(float64(s.Uint64()>>11) / (1 << 53))
}

// Bool returns true with probability p. Values of p outside [0,1] clamp to
// always-false / always-true.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// BitMask draws width (1–64) consecutive Uint64 values and returns a mask
// whose bit j is set iff draw j satisfies draw>>11 < threshold. With
// threshold = ceil(p·2⁵³) for 0 < p < 1 this is exactly width consecutive
// Bool(p) draws — float64(u>>11)·2⁻⁵³ < p and u>>11 < ceil(p·2⁵³) decide
// identically because both sides of each comparison are exact — packed
// into one call so the generator state stays in registers instead of
// round-tripping through memory on every draw. The stream advances exactly
// width steps; interleaving BitMask and Uint64 calls replays the same
// sequence as Uint64 alone.
func (s *Source) BitMask(width int, threshold uint64) uint64 {
	x := s.x
	var mask uint64
	for j := 0; j < width; j++ {
		var draw uint64
		x, draw = x.Next()
		// Branchless decision: both operands are < 2⁵³, so the uint64
		// subtraction borrows — sign bit set — exactly when draw < threshold.
		// The engine's serial update chain is the latency floor here; a
		// manual two-step unroll measured no faster.
		mask |= (draw>>11 - threshold) >> 63 << uint(j)
	}
	s.x = x
	return mask
}

// Shuffle randomizes the order of n elements using the Fisher-Yates
// algorithm; swap exchanges elements i and j.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// SampleWithoutReplacement fills dst with k distinct values drawn uniformly
// from the candidate set candidates, using a partial Fisher-Yates over a
// scratch copy. It panics if k exceeds len(candidates).
//
// The scratch slice is reused if it has sufficient capacity, so callers in
// hot loops can avoid per-call allocation by passing the previous scratch
// back in. The returned scratch must be treated as opaque.
func (s *Source) SampleWithoutReplacement(dst []int, candidates []int, scratch []int) []int {
	k := len(dst)
	n := len(candidates)
	if k > n {
		panic("rng: sample size exceeds candidate set")
	}
	if cap(scratch) < n {
		scratch = make([]int, n)
	}
	scratch = scratch[:n]
	copy(scratch, candidates)
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		scratch[i], scratch[j] = scratch[j], scratch[i]
		dst[i] = scratch[i]
	}
	return scratch
}
