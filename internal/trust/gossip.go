package trust

import "math"

// Second-hand reputation exchange, the extension the paper's related work
// discusses (§2): CORE exchanges only positive ratings so that "a
// malicious broadcast of negative rankings for legitimate nodes is
// avoided"; CONFIDANT and Buchegger & Le Boudec's rumor-spreading study
// weigh second-hand reports below first-hand observation. Merge
// implements that scheme: import another node's observations about third
// parties, but only favorable ones, and scaled down by a weight.

// Merge imports slot src's observations about third parties into slot
// dst: for every node src knows with a forwarding rate of at least
// minRate, dst's counters grow by weight times src's counters (rounded,
// with a floor of one request so that tiny weights still register the
// node as known). Reports about dst itself are skipped, as are negative
// reports (rate below minRate).
//
// With invert set, src is a Byzantine gossip liar (see internal/dynamics):
// its forwarding counters are inverted before the filter, as a liar would
// report them — every observed drop becomes a claimed forward and vice
// versa — so its "positive" reports about heavy droppers pass the
// positive-only filter while its slander of reliable forwarders is
// discarded.
//
// Peers outside the tournament are merged store to store and participants
// cell to cell, so no more of the matrix moves than the two rows. The
// merge is additive: gossiping the same data twice counts it twice.
// Callers model credibility by keeping weight well below 1, matching the
// "more relevance is given to ... own experience" design of CORE.
func (m *Matrix) Merge(dst, src int, minRate, weight float64, invert bool) {
	if weight <= 0 {
		return
	}
	known, fwd := 0, uint64(0)
	from := m.stores[src].rec
	m.stores[dst].EnsureSize(len(from))
	to := m.stores[dst].rec
	for id, c := range from {
		if c.Requests == 0 || m.slot[id] != 0 {
			continue
		}
		k, f := merge(&to[id], c, minRate, weight, invert)
		known += k
		fwd += f
	}
	n := m.N
	toRow, fromRow := m.Cells[dst*n:dst*n+n], m.Cells[src*n:src*n+n]
	for p, c := range fromRow {
		if c.Requests == 0 || p == dst {
			continue
		}
		k, f := merge(&toRow[p], c, minRate, weight, invert)
		known += k
		fwd += f
	}
	m.Known[dst] += known
	m.ForwardsSum[dst] += fwd
}

// merge folds one known second-hand record src into dst (see
// Matrix.Merge) and reports whether dst became known and how much its pf
// grew.
func merge(dst *Counters, src Counters, minRate, weight float64, invert bool) (known int, addedFwd uint64) {
	forwards := uint64(src.Forwards)
	if invert {
		forwards = uint64(src.Requests) - forwards
	}
	if float64(forwards)/float64(src.Requests) < minRate {
		return 0, 0
	}
	addReq := uint64(math.Round(float64(src.Requests) * weight))
	if addReq == 0 {
		addReq = 1
	}
	addFwd := uint64(math.Round(float64(forwards) * weight))
	if addFwd > addReq {
		addFwd = addReq
	}
	if dst.Requests == 0 {
		known = 1
	}
	// The only non-unit counter increments: saturate at the uint32
	// ceiling instead of wrapping (unreachable in any realistic run — see
	// the Counters doc).
	newReq := min(uint64(dst.Requests)+addReq, math.MaxUint32)
	newFwd := min(uint64(dst.Forwards)+addFwd, math.MaxUint32)
	addedFwd = newFwd - uint64(dst.Forwards)
	dst.Requests, dst.Forwards = uint32(newReq), uint32(newFwd)
	return known, addedFwd
}
