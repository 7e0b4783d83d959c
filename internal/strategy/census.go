package strategy

import (
	"cmp"
	"slices"
)

// Census counts strategy occurrences across one or more final populations.
// The paper's Table 7 ("five most popular strategies") and Tables 8–9
// (sub-strategy distributions per trust level, filtered at 3%) are both
// views of a census.
//
// Counts are keyed by the packed 13-bit genome (see pack), not by Key
// strings, so a retained census costs one small map entry per distinct
// strategy and no string. Top breaks ties in Key order, and the float
// means sum in Key order, so every call returns the same bits.
type Census struct {
	counts map[uint16]int
	total  int
}

// NewCensus returns an empty census.
func NewCensus() *Census {
	return &Census{counts: make(map[uint16]int)}
}

// Add records one strategy occurrence.
func (c *Census) Add(s Strategy) {
	c.counts[s.pack()]++
	c.total++
}

// AddAll records every strategy in the slice.
func (c *Census) AddAll(ss []Strategy) {
	for _, s := range ss {
		c.Add(s)
	}
}

// Total returns the number of occurrences recorded.
func (c *Census) Total() int { return c.total }

// Distinct returns the number of distinct strategies recorded.
func (c *Census) Distinct() int { return len(c.counts) }

// genomes returns the recorded packed genomes in Key order, which is
// their numeric order.
func (c *Census) genomes() []uint16 {
	gs := make([]uint16, 0, len(c.counts))
	for g := range c.counts {
		gs = append(gs, g)
	}
	slices.Sort(gs)
	return gs
}

// Entry is one census row: a strategy, its occurrence count, and its
// frequency among all recorded occurrences.
type Entry struct {
	Strategy Strategy
	Count    int
	Fraction float64
}

// Top returns the k most frequent strategies, most frequent first. Ties
// break by key so the output is deterministic.
func (c *Census) Top(k int) []Entry {
	entries := make([]Entry, 0, len(c.counts))
	for _, g := range c.genomes() {
		n := c.counts[g]
		entries = append(entries, Entry{
			Strategy: unpack(g),
			Count:    n,
			Fraction: float64(n) / float64(c.total),
		})
	}
	slices.SortStableFunc(entries, func(a, b Entry) int { return cmp.Compare(b.Count, a.Count) })
	if k < len(entries) {
		entries = entries[:k]
	}
	return entries
}

// SubEntry is one row of a sub-strategy distribution: the 3-bit pattern for
// a single trust level and its frequency.
type SubEntry struct {
	Pattern  string // e.g. "111"
	Count    int
	Fraction float64
}

// SubStrategies returns the distribution of 3-bit sub-strategies at the
// given trust level, most frequent first, dropping patterns whose
// frequency is below minFraction (the paper uses 0.03). Ties break by
// pattern for determinism.
func (c *Census) SubStrategies(t TrustLevel, minFraction float64) []SubEntry {
	sub := make(map[string]int)
	for g, n := range c.counts {
		sub[unpack(g).SubStrategy(t)] += n
	}
	out := make([]SubEntry, 0, len(sub))
	for pattern, n := range sub {
		frac := float64(n) / float64(c.total)
		if frac < minFraction {
			continue
		}
		out = append(out, SubEntry{Pattern: pattern, Count: n, Fraction: frac})
	}
	slices.SortFunc(out, func(a, b SubEntry) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return cmp.Compare(a.Pattern, b.Pattern)
	})
	return out
}

// UnknownForwardFraction returns the fraction of recorded strategies whose
// unknown-node decision is Forward — the property the paper highlights in
// §6.3 ("new nodes can easily join the network").
func (c *Census) UnknownForwardFraction() float64 {
	if c.total == 0 {
		return 0
	}
	fwd := 0
	for g, n := range c.counts {
		if unpack(g).DecideUnknown() == Forward {
			fwd += n
		}
	}
	return float64(fwd) / float64(c.total)
}

// MeanCooperativeness returns the occurrence-weighted mean fraction of
// Forward bits across the census.
func (c *Census) MeanCooperativeness() float64 {
	if c.total == 0 {
		return 0
	}
	sum := 0.0
	for _, g := range c.genomes() {
		sum += unpack(g).Cooperativeness() * float64(c.counts[g])
	}
	return sum / float64(c.total)
}
