package rng

import (
	"fmt"
	"math"
)

// Categorical is a fixed discrete distribution over the outcomes
// 0..len(weights)-1. Construction validates and normalizes the weights
// once and turns the cumulative table into integer thresholds; sampling
// compares the draw's 53 uniform bits against them.
//
// A Categorical is immutable after construction and therefore safe to
// share across goroutines (each goroutine still needs its own Source).
type Categorical struct {
	cum []float64 // non-decreasing, cum[len-1] == total

	// thr[i] is the smallest 53-bit draw x whose scaled value
	// float64(x)/2⁵³·total reaches cum[i]; the last entry (the last
	// outcome the scan can pick) is 2⁵³, above every draw, and
	// outcomes past it are dropped. Outcome i is therefore the first
	// index with x < thr[i], exactly the float scan's choice (see
	// NewCategorical for why).
	thr []uint64

	// lut holds, for each of the 256 buckets x>>45, the outcome of the
	// bucket's smallest draw (capped at 255). Outcomes are non-decreasing
	// in x, so the entry is a lower bound for every draw in its bucket and
	// Outcome only ever walks forward from it; a bucket that no threshold
	// crosses — nearly all of them for the paper's tables — settles in one
	// compare.
	lut [256]uint8
}

// drawBits is the width of the uniform draw Sample decides on: the top 53
// bits of one engine output, the same bits Float64 uses.
const drawBits = 53

// NewCategorical builds a categorical distribution from non-negative
// weights. At least one weight must be positive, and their sum finite.
//
// Sample's decision is defined by the float scan over
// u = float64(x)/2⁵³·total, for the top 53 bits x of one engine output.
// That u is monotone non-decreasing in x: float64(x) is exact for x < 2⁵³,
// the division by a power of two is exact, and rounding the product to
// nearest is monotone. So the set of draws with u < cum[i] is a prefix
// [0, thr[i]) of the draw range, and comparing x against the integer
// threshold makes the same decision as comparing u against cum[i] — for
// every draw, not just almost every one. The thresholds are found by
// binary search over that same float expression.
func NewCategorical(weights []float64) (*Categorical, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("rng: categorical needs at least one weight")
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 || w != w { // negative or NaN
			return nil, fmt.Errorf("rng: categorical weight %d is invalid (%v)", i, w)
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("rng: categorical weights sum to zero")
	}
	if math.IsInf(total, 1) {
		return nil, fmt.Errorf("rng: categorical weights sum to infinity")
	}
	c := &Categorical{cum: cum}
	// The scan's answer when u reaches the total is its last selectable
	// outcome; every draw at or past thr[last] would get it, so that
	// threshold is lifted past every draw instead.
	last := c.scan(total)
	c.thr = make([]uint64, last+1)
	for i := 0; i < last; i++ {
		c.thr[i] = c.threshold(cum[i])
	}
	c.thr[last] = 1 << drawBits
	for b := range c.lut {
		c.lut[b] = uint8(min(c.scan(scaled(uint64(b)<<(drawBits-8), total)), 255))
	}
	return c, nil
}

// scaled is the float position of the 53-bit draw x on [0, total): the
// value the reference scan compares against the cumulative weights.
func scaled(x uint64, total float64) float64 {
	return float64(x) / (1 << drawBits) * total
}

// threshold returns the smallest 53-bit draw whose scaled value is at
// least v, or 2⁵³ when no draw reaches it.
func (c *Categorical) threshold(v float64) uint64 {
	total := c.cum[len(c.cum)-1]
	lo, hi := uint64(0), uint64(1)<<drawBits
	for lo < hi {
		mid := lo + (hi-lo)/2
		if scaled(mid, total) >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// MustCategorical is NewCategorical that panics on invalid weights. Use it
// for static tables known to be correct.
func MustCategorical(weights []float64) *Categorical {
	c, err := NewCategorical(weights)
	if err != nil {
		panic(err)
	}
	return c
}

// Len returns the number of outcomes.
func (c *Categorical) Len() int { return len(c.cum) }

// Prob returns the probability of outcome i.
func (c *Categorical) Prob(i int) float64 {
	total := c.cum[len(c.cum)-1]
	if i == 0 {
		return c.cum[0] / total
	}
	return (c.cum[i] - c.cum[i-1]) / total
}

// Sample draws one outcome index according to the weights. The draw
// consumes exactly one engine step and decides identically to
// s.Float64()*total fed to the linear scan.
func (c *Categorical) Sample(s *Source) int {
	return c.Outcome(s.Uint64())
}

// Outcome returns the outcome Sample picks when the engine step yields
// draw. Loops that keep the engine in a local Xoshiro decide with it
// directly; it is small enough to inline.
func (c *Categorical) Outcome(draw uint64) int {
	x := draw >> (64 - drawBits)
	o := int(c.lut[x>>(drawBits-8)])
	for x >= c.thr[o] {
		o++
	}
	return o
}

// scan is the reference decision the thresholds restate: the first index
// whose cumulative weight strictly exceeds u. Zero-weight outcomes have
// cum[i] == cum[i-1] and can never be selected (not even at u == 0, which
// Float64 can return).
func (c *Categorical) scan(u float64) int {
	cum := c.cum
	for i, ci := range cum {
		if u < ci {
			return i
		}
	}
	// u landed exactly on the total; take the last positive-weight outcome.
	i := len(cum) - 1
	for i > 0 && cum[i] == cum[i-1] {
		i--
	}
	return i
}
