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
// A census is one row per distinct strategy, holding the packed 13-bit
// genome (a Strategy's own representation) and its count, sorted by
// genome. A genome's numeric order is its Key order, so every view walks
// the rows in Key order: Top
// breaks ties by Key and the float means sum in the same order on every
// call. A retained census costs 8 bytes per distinct strategy and no
// string. The zero Census is empty and ready to use.
type Census struct {
	rows  []censusRow
	total int
}

// censusRow counts one packed genome. A uint32 count cannot overflow: it
// would take 2³² strategies in memory.
type censusRow struct {
	g uint16
	n uint32
}

func compareRows(a, b censusRow) int { return cmp.Compare(a.g, b.g) }

// NewCensus returns an empty census.
func NewCensus() *Census { return &Census{} }

// AddAll records every strategy in the slice: it appends one row per
// occurrence, sorts and merges them once, and keeps the rows at exactly
// their length.
func (c *Census) AddAll(ss []Strategy) {
	if len(ss) == 0 {
		return
	}
	rows := make([]censusRow, len(c.rows), len(c.rows)+len(ss))
	copy(rows, c.rows)
	for _, s := range ss {
		rows = append(rows, censusRow{g: s.p, n: 1})
	}
	slices.SortFunc(rows, compareRows)
	merged := rows[:0]
	for _, r := range rows {
		if k := len(merged) - 1; k >= 0 && merged[k].g == r.g {
			merged[k].n += r.n
		} else {
			merged = append(merged, r)
		}
	}
	c.rows = append(make([]censusRow, 0, len(merged)), merged...)
	c.total += len(ss)
}

// Entry is one census row: a strategy, its occurrence count, and its
// frequency among all recorded occurrences.
type Entry struct {
	Strategy Strategy
	Count    int
	Fraction float64
}

// Top returns the k most frequent strategies, most frequent first. Ties
// break by key so the output is deterministic. k ≤ 0 returns no entries.
func (c *Census) Top(k int) []Entry {
	if k <= 0 {
		return []Entry{}
	}
	entries := make([]Entry, 0, len(c.rows))
	for _, r := range c.rows {
		entries = append(entries, Entry{
			Strategy: Strategy{p: r.g},
			Count:    int(r.n),
			Fraction: float64(r.n) / float64(c.total),
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
	for _, r := range c.rows {
		sub[Strategy{p: r.g}.SubStrategy(t)] += int(r.n)
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
	for _, r := range c.rows {
		if (Strategy{p: r.g}).DecideUnknown() == Forward {
			fwd += int(r.n)
		}
	}
	return float64(fwd) / float64(c.total)
}
