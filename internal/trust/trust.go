// Package trust implements the paper's reputation collection and trust /
// activity evaluation mechanisms (§3.1–3.2, Fig 1a–b).
//
// Each node keeps, for every other node it has observed, two counters: how
// many packets that node was asked to forward (ps) and how many it actually
// forwarded (pf). The forwarding rate pf/ps feeds a four-level trust lookup
// table; the raw pf counts feed the three-level activity evaluation. Both
// feed the strategy's forwarding decision and the payoff table.
//
// Storage is dense: a Store is a NodeID-indexed slice of Counters, not a
// map. NodeIDs are dense small integers by construction
// (tournament.BuildRegistry panics on gaps or duplicates — see DESIGN.md),
// so a slice sized to the registry covers every possible peer. A
// tournament does not play on the stores themselves: it gathers its
// participants' counters about each other into a slot-indexed Matrix,
// plays every round on that, and scatters it back (see Matrix).
package trust

import (
	"fmt"

	"adhocga/internal/network"
	"adhocga/internal/strategy"
)

// Counters is one node's §3.1 record about one peer. The peer is known
// iff Requests > 0 (every code path that touches a record increments
// Requests by ≥ 1).
//
// The counters are uint32, which packs a record into 8 bytes — a T = 50
// tournament's whole Matrix is 20 KB and stays in L1. Counters are per-pair
// within one generation (reset at every generation boundary), which bounds
// them around rounds·hops — the paper's tournaments reach ~10⁵, nowhere
// near the 4.3·10⁹ ceiling. Gossip merges, the only non-unit increments,
// saturate at the ceiling rather than wrapping.
type Counters struct {
	Requests uint32 // ps: packets this node was asked ("sent") to forward
	Forwards uint32 // pf: packets it actually forwarded
}

// Rate is the §3.1 forwarding rate pf/ps of a known record; every reader
// derives it with this one expression, so trust levels and path ratings
// agree bit for bit.
func (c Counters) Rate() float64 {
	return float64(c.Forwards) / float64(c.Requests)
}

// Store is one node's private reputation memory about other nodes, indexed
// densely by NodeID. It is not safe for concurrent use; in the simulator
// each player owns exactly one Store.
type Store struct {
	rec []Counters

	// known counts records with Requests > 0.
	known int

	// forwardsSum is Σ pf over all known nodes, so that the §3.2 activity
	// average is O(1) per query instead of O(known nodes).
	forwardsSum uint64
}

// NewStore returns an empty reputation memory. Size it with EnsureSize
// before a Matrix gathers from it.
func NewStore() *Store { return &Store{} }

// EnsureSize grows the store to cover NodeIDs 0..n-1. Existing data is
// preserved; new entries are unknown. It never shrinks.
func (s *Store) EnsureSize(n int) {
	if n <= len(s.rec) {
		return
	}
	if n <= cap(s.rec) {
		old := len(s.rec)
		s.rec = s.rec[:n]
		clear(s.rec[old:])
		return
	}
	c := 2 * cap(s.rec)
	if c < n {
		c = n
	}
	rec := make([]Counters, n, c)
	copy(rec, s.rec)
	s.rec = rec
}

// Reset forgets everything but keeps the allocated capacity; the
// evaluation scheme clears all memories at the start of each generation
// (§4.4 step 1).
func (s *Store) Reset() {
	clear(s.rec)
	s.known = 0
	s.forwardsSum = 0
}

// Forget erases everything the store knows about one node, in place: the
// counters are zeroed, and the known count and activity sum drop the
// node's contribution. It is the identity-remap primitive of the dynamics
// layer (internal/dynamics): when churn recycles a NodeID for a fresh
// node, every store that might still hold the departed node's reputation
// forgets the ID without reallocating or disturbing any other record.
// Forgetting an ID the store never saw (including IDs beyond its size) is
// a no-op.
func (s *Store) Forget(id network.NodeID) {
	if int(id) >= len(s.rec) {
		return
	}
	r := &s.rec[id]
	if r.Requests == 0 {
		return
	}
	s.known--
	s.forwardsSum -= uint64(r.Forwards)
	*r = Counters{}
}

// Counters returns the store's record about a node (zero if unknown).
func (s *Store) Counters(id network.NodeID) Counters {
	if int(id) < len(s.rec) {
		return s.rec[id]
	}
	return Counters{}
}

// Totals returns the number of known nodes and Σ pf over them: the two
// aggregates behind the §3.2 activity average.
func (s *Store) Totals() (known int, forwardsSum uint64) {
	return s.known, s.forwardsSum
}

// Activity is the §3.2 activity level of a source whose pf is forwards, as
// seen by an evaluator that knows `known` nodes (≥ 1) whose pf sum to
// forwardsSum: the source's pf is compared against av, their mean. Within
// ±band·av → medium; below → low; above → high.
//
// Note the asymmetry inherited from the paper: av averages over the nodes
// the evaluator knows, whether or not that includes the source.
func Activity(forwards uint32, known int, forwardsSum uint64, band float64) strategy.ActivityLevel {
	av := float64(forwardsSum) / float64(known)
	srcF := float64(forwards)
	switch {
	case srcF < av-float64(band*av):
		return strategy.ActivityLow
	case srcF > av+float64(band*av):
		return strategy.ActivityHigh
	}
	return strategy.ActivityMedium
}

// Table is the trust lookup table of Fig 1b, mapping a forwarding rate to
// one of four trust levels. Thresholds are the lower bounds of levels
// 3, 2, 1 (descending); rates below Thresholds[2] map to level 0.
type Table struct {
	Thresholds [3]float64
}

// DefaultTable returns the paper's table: [1.0–0.9]→3, [0.9–0.6)→2,
// [0.6–0.3)→1, [0.3–0)→0. Boundary rates belong to the higher level.
func DefaultTable() Table {
	return Table{Thresholds: [3]float64{0.9, 0.6, 0.3}}
}

// Validate checks that thresholds are strictly descending within (0,1).
func (t Table) Validate() error {
	prev := 1.0
	for i, th := range t.Thresholds {
		if th <= 0 || th >= 1 {
			return fmt.Errorf("trust: threshold %d = %v outside (0,1)", i, th)
		}
		if th >= prev {
			return fmt.Errorf("trust: thresholds must be strictly descending, got %v", t.Thresholds)
		}
		prev = th
	}
	return nil
}

// Level maps a forwarding rate to a trust level.
func (t Table) Level(rate float64) strategy.TrustLevel {
	switch {
	case rate >= t.Thresholds[0]:
		return strategy.Trust3
	case rate >= t.Thresholds[1]:
		return strategy.Trust2
	case rate >= t.Thresholds[2]:
		return strategy.Trust1
	default:
		return strategy.Trust0
	}
}

// DefaultActivityBand is the ±20% band around the average of §3.2.
const DefaultActivityBand = 0.2
