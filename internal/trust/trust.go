// Package trust implements the paper's reputation collection and trust /
// activity evaluation mechanisms (§3.1–3.2, Fig 1a–b).
//
// Each node keeps, for every other node it has observed, two counters: how
// many packets that node was asked to forward (ps) and how many it actually
// forwarded (pf). The forwarding rate pf/ps feeds a four-level trust lookup
// table; the raw pf counts feed the three-level activity evaluation. Both
// feed the strategy's forwarding decision and the payoff table.
//
// Storage is dense: a Store is a NodeID-indexed slice of records, not a
// map. NodeIDs are dense small integers by construction
// (tournament.BuildRegistry panics on gaps or duplicates — see DESIGN.md),
// so a slice sized to the registry covers every possible peer with one
// bounds-checked index per lookup and zero steady-state allocations. Each
// record additionally caches the Fig 1b trust level its forwarding rate
// pf/ps maps to, refreshed at most once per counter change, lazily at the
// next decision, so decisions never recompute it and pure observation
// stays integer-only.
package trust

import (
	"fmt"

	"adhocga/internal/network"
	"adhocga/internal/strategy"
)

// record holds the two per-pair reputation counters of §3.1 plus the
// cached trust level derived from them. A node is known iff requests > 0
// (every code path that touches a record increments requests by ≥ 1).
//
// dirty marks a record whose counters changed since level was last
// derived; decisions flush it before use. Keeping the write path to plain
// integer increments matters because observations outnumber decisions
// ~k:1 on a k-intermediate path.
//
// The counters are uint32, which packs a record into 12 bytes instead of
// 24 — a game touches O(path²) records spread over every participant's
// store (Fig 1a: each observer updates each intermediate), so halving the
// record keeps roughly twice as many stores resident in L2. Counters are
// per-pair within one generation (reset at every generation boundary),
// which bounds them around rounds·hops — the paper's tournaments reach
// ~10⁵, nowhere near the 4.3·10⁹ ceiling. Gossip merges, the only
// non-unit increments, saturate at the ceiling rather than wrapping.
type record struct {
	requests uint32 // ps: packets this node was asked ("sent") to forward
	forwards uint32 // pf: packets it actually forwarded
	level    strategy.TrustLevel
	dirty    bool
}

// Store is one node's private reputation memory about other nodes, indexed
// densely by NodeID. It is not safe for concurrent use; in the simulator
// each player owns exactly one Store and tournaments mutate it from a
// single goroutine.
//
// The store grows on demand when an unseen NodeID is observed, but callers
// that know the full ID range (the tournament runner sizes every
// participant's store to the registry) should pre-size it with EnsureSize
// so the steady state never allocates.
type Store struct {
	rec []record

	// view is PathRates' scratch: the dense rate view, rebuilt from rec
	// on every call. Route rating on the hot path (RatePaths) reads the
	// counters directly, so no rate array is kept in step with rec.
	view []float64

	// known counts records with requests > 0.
	known int

	// forwardsSum caches Σ pf over all known nodes so that the §3.2
	// activity average is O(1) per query instead of O(known nodes).
	forwardsSum uint64

	// table maps cached forwarding rates to the cached trust levels.
	table Table
}

// NewStore returns an empty reputation memory using the paper's default
// trust table. The store grows as nodes are observed; use NewStoreSized or
// EnsureSize when the ID range is known up front.
func NewStore() *Store {
	return &Store{table: DefaultTable()}
}

// NewStoreSized returns an empty reputation memory pre-sized for NodeIDs
// 0..n-1.
func NewStoreSized(n int) *Store {
	s := NewStore()
	s.EnsureSize(n)
	return s
}

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
	rec := make([]record, n, c)
	copy(rec, s.rec)
	s.rec = rec
}

// Size returns the number of NodeIDs the store currently covers (known or
// not).
func (s *Store) Size() int { return len(s.rec) }

// Reset forgets everything but keeps the allocated capacity; the
// evaluation scheme clears all memories at the start of each generation
// (§4.4 step 1).
func (s *Store) Reset() {
	clear(s.rec)
	s.known = 0
	s.forwardsSum = 0
}

// SetTable installs the Fig 1b trust table used for the cached trust
// levels, recomputing existing cache entries if the table actually
// changes. NewStore installs DefaultTable; game decisions re-sync the
// table from their Config automatically, so explicit calls are only an
// optimization for custom-table setups.
func (s *Store) SetTable(t Table) {
	if t == s.table {
		return
	}
	s.table = t
	for i := range s.rec {
		if r := &s.rec[i]; r.requests > 0 {
			s.flushRecord(r)
		}
	}
}

// TrustTable returns the table the cached trust levels are derived from.
func (s *Store) TrustTable() Table { return s.table }

// Observe records one watchdog observation about a node: it was asked to
// forward a packet and either did (forwarded=true) or dropped it. The
// write path is integer-only — the derived trust level is flushed lazily
// at the next decision (Evaluate), so a record observed many times between
// decisions pays for one division, not many.
//
// The body is split so the in-range case (the only one a pre-sized
// tournament store ever sees) inlines into the game loop as a few
// increments and an unconditional dirty-bit store — marking a record
// dirty needs no bookkeeping beyond the bit itself, so re-marking an
// already-dirty record is free and the fast path carries no dirty check.
// Only growth takes the slow path.
func (s *Store) Observe(id network.NodeID, forwarded bool) {
	if int(id) < len(s.rec) {
		r := &s.rec[id]
		if r.requests == 0 {
			s.known++
		}
		r.requests++
		r.dirty = true
		if forwarded {
			r.forwards++
			s.forwardsSum++
		}
		return
	}
	s.observeSlow(id, forwarded)
}

// ObservePath records one game's worth of Fig 1a observations in bulk:
// for every position j, ids[j] is observed as having forwarded unless
// j == firstDrop (pass firstDrop = -1 for a delivered packet, so that
// every node forwarded). Entries equal to self are skipped — a node never
// observes itself. Equivalent to calling Observe per entry, minus the
// per-observation call overhead on the game hot path.
func (s *Store) ObservePath(ids []network.NodeID, self network.NodeID, firstDrop int) {
	for j, id := range ids {
		if id == self {
			continue
		}
		forwarded := j != firstDrop
		if int(id) < len(s.rec) {
			r := &s.rec[id]
			if r.requests == 0 {
				s.known++
			}
			r.requests++
			r.dirty = true
			if forwarded {
				r.forwards++
				s.forwardsSum++
			}
			continue
		}
		s.observeSlow(id, forwarded)
	}
}

// observeSlow is the growth path: the ID is beyond the store, so the
// store is enlarged first. Pre-sized tournament stores never come here.
func (s *Store) observeSlow(id network.NodeID, forwarded bool) {
	s.EnsureSize(int(id) + 1)
	r := &s.rec[id]
	if r.requests == 0 {
		s.known++
	}
	r.requests++
	r.dirty = true
	if forwarded {
		r.forwards++
		s.forwardsSum++
	}
}

// flushRecord derives the cached Fig 1b trust level from the record's
// counters. Callers guarantee requests > 0.
func (s *Store) flushRecord(r *record) {
	r.level = s.table.Level(r.rate())
	r.dirty = false
}

// rate is the §3.1 forwarding rate pf/ps of a known record; every reader
// derives it with this one expression, so cached levels, path ratings and
// the rate view all agree bit for bit.
func (r *record) rate() float64 {
	return float64(r.forwards) / float64(r.requests)
}

// Forget erases everything the store knows about one node, in place: the
// counters are zeroed, the cached rate returns to network.UnknownRate, and
// the known count and activity mean drop the node's contribution. It is
// the identity-remap primitive of the dynamics layer (internal/dynamics):
// when churn recycles a NodeID for a fresh node, every store that might
// still hold the departed node's reputation forgets the ID without
// reallocating or disturbing any other record. Forgetting an ID the store
// never saw (including IDs beyond its size) is a no-op.
func (s *Store) Forget(id network.NodeID) {
	if int(id) >= len(s.rec) {
		return
	}
	r := &s.rec[id]
	if r.requests == 0 {
		return
	}
	s.known--
	s.forwardsSum -= uint64(r.forwards)
	*r = record{}
}

// Known reports whether the store has any data about the node.
func (s *Store) Known(id network.NodeID) bool {
	return int(id) < len(s.rec) && s.rec[id].requests > 0
}

// KnownCount returns the number of nodes with at least one observation.
func (s *Store) KnownCount() int { return s.known }

// Requests returns ps for the node (0 if unknown).
func (s *Store) Requests(id network.NodeID) uint64 {
	if int(id) < len(s.rec) {
		return uint64(s.rec[id].requests)
	}
	return 0
}

// Forwards returns pf for the node (0 if unknown).
func (s *Store) Forwards(id network.NodeID) uint64 {
	if int(id) < len(s.rec) {
		return uint64(s.rec[id].forwards)
	}
	return 0
}

// ForwardingRate returns pf/ps for the node and whether the node is known.
func (s *Store) ForwardingRate(id network.NodeID) (float64, bool) {
	if !s.Known(id) {
		return 0, false
	}
	return s.rec[id].rate(), true
}

// MeanForwards returns the average pf over all known nodes — the "av"
// value of §3.2 — and whether any node is known.
func (s *Store) MeanForwards() (float64, bool) {
	if s.known == 0 {
		return 0, false
	}
	return float64(s.forwardsSum) / float64(s.known), true
}

// KnownNodes returns the IDs the store has data about, in ascending order
// (free with dense storage — no sort needed).
func (s *Store) KnownNodes() []network.NodeID {
	ids := make([]network.NodeID, 0, s.known)
	for i := range s.rec {
		if s.rec[i].requests > 0 {
			ids = append(ids, network.NodeID(i))
		}
	}
	return ids
}

// PathRates returns the dense §3.1 rate view: rates[id] is pf/ps for
// known nodes and network.UnknownRate for unknown ones; IDs at or beyond
// len(rates) are unknown too. It is exactly the factor network.RatePath
// multiplies per intermediate, so rating a path over this view equals
// RatePaths. The slice is owned by the store, rebuilt on every call, and
// must not be modified; re-fetch it after further observations rather than
// retaining it.
func (s *Store) PathRates() []float64 {
	if cap(s.view) < len(s.rec) {
		s.view = make([]float64, len(s.rec))
	}
	s.view = s.view[:len(s.rec)]
	for i := range s.rec {
		s.view[i] = s.rateOf(i)
	}
	return s.view
}

// rateOf is the rate-view entry of an in-range ID.
func (s *Store) rateOf(id int) float64 {
	if r := &s.rec[id]; r.requests > 0 {
		return r.rate()
	}
	return network.UnknownRate
}

// RatePaths rates every candidate path in one walk: for each path it
// computes the §3.1 rating — the product over its intermediates of their
// forwarding rates, UnknownRate for unknown ones — and stores it into
// ratings, which is grown as needed and returned. Each factor is derived
// from the counters where it is read, the same value PathRates reports,
// so the ratings are bit-identical to network.RatePath over PathRates; the
// walk touches one record per intermediate and writes nothing to the
// store.
func (s *Store) RatePaths(paths []network.Path, ratings []float64) []float64 {
	if cap(ratings) < len(paths) {
		ratings = make([]float64, len(paths))
	}
	ratings = ratings[:len(paths)]
	for i, p := range paths {
		rating := 1.0
		for _, id := range p.Intermediates {
			f := network.UnknownRate
			if int(id) < len(s.rec) {
				f = s.rateOf(int(id))
			}
			rating *= f
		}
		ratings[i] = rating
	}
	return ratings
}

// Evaluate returns the cached trust level and the §3.2 activity level of
// the source in one O(1) lookup, and whether the source is known (when it
// is not, the strategy's unknown-node bit applies and both levels are
// meaningless). This is the forwarding-decision hot path: a single
// bounds-checked index, no map probes, no rate division.
func (s *Store) Evaluate(id network.NodeID, band float64) (strategy.TrustLevel, strategy.ActivityLevel, bool) {
	if int(id) >= len(s.rec) {
		return 0, 0, false
	}
	r := &s.rec[id]
	if r.requests == 0 {
		return 0, 0, false
	}
	if r.dirty {
		s.flushRecord(r)
	}
	// known(id) implies known > 0, so av is well defined. The bounds are
	// recomputed per call: forwardsSum moves with nearly every observation
	// the store makes, so between two decisions by the same store it has
	// almost always changed — a cache keyed on it never hits (measured).
	av := float64(s.forwardsSum) / float64(s.known)
	srcF := float64(r.forwards)
	act := strategy.ActivityMedium
	switch {
	case srcF < av-band*av:
		act = strategy.ActivityLow
	case srcF > av+band*av:
		act = strategy.ActivityHigh
	}
	return r.level, act, true
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

// LevelOf looks a node up in the store and maps it through the table. The
// boolean is false when the node is unknown, in which case the strategy's
// unknown-node bit applies instead. Unlike Store.Evaluate it applies t
// itself rather than the store's cached level, so it works with any table.
func (t Table) LevelOf(s *Store, id network.NodeID) (strategy.TrustLevel, bool) {
	rate, known := s.ForwardingRate(id)
	if !known {
		return 0, false
	}
	return t.Level(rate), true
}

// DefaultActivityBand is the ±20% band around the average of §3.2.
const DefaultActivityBand = 0.2

// ActivityOf computes the §3.2 activity level of the source as seen by the
// owner of the store: the source's pf is compared against av, the mean pf
// over all nodes the evaluator knows. Within ±band·av → medium; below →
// low; above → high. The boolean is false when the evaluator knows nothing
// about the source (activity is then irrelevant: the unknown-node rule
// decides).
//
// Note the asymmetry inherited from the paper: av averages over the nodes
// the evaluator knows, whether or not that includes the source.
func ActivityOf(s *Store, src network.NodeID, band float64) (strategy.ActivityLevel, bool) {
	_, act, known := s.Evaluate(src, band)
	return act, known
}
