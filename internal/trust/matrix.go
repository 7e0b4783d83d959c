package trust

import "adhocga/internal/network"

// Matrix is a tournament's working copy of its participants' reputation
// memories, indexed by slot: participant i of the tournament is slot i.
// Cells[o*N+p] is what slot o has observed of slot p; Known[o] and
// ForwardsSum[o] are slot o's aggregates over everything it knows,
// participants or not. Load gathers the cells from the stores and Save
// scatters them back, so reputation persists across tournaments and
// environments (§4.4) while every round reads and writes one T×T block —
// T = 50 takes 20 KB and stays in L1 — instead of chasing registry-wide
// stores.
//
// Between Load and Save the stores' records about participants are stale:
// the game loop writes the matrix alone, and Merge reads and writes the
// stores only for non-participant peers.
type Matrix struct {
	N           int
	Cells       []Counters
	Known       []int
	ForwardsSum []uint64

	stores []*Store
	ids    []network.NodeID
	slot   []int32 // NodeID → slot+1 while loaded, 0 for non-participants
}

// Load gathers the memories of one tournament's participants: slot i is
// the owner of stores[i], whose NodeID is ids[i]. Every store is first
// sized to cover NodeIDs 0..size-1 (the registry), which every id must
// fall in. The matrix holds on to stores and ids until Save.
func (m *Matrix) Load(stores []*Store, ids []network.NodeID, size int) {
	n := len(ids)
	m.N, m.stores, m.ids = n, stores, ids
	if cap(m.Cells) < n*n {
		m.Cells = make([]Counters, n*n)
		m.Known = make([]int, n)
		m.ForwardsSum = make([]uint64, n)
	}
	m.Cells, m.Known, m.ForwardsSum = m.Cells[:n*n], m.Known[:n], m.ForwardsSum[:n]
	for _, s := range stores {
		s.EnsureSize(size)
		size = max(size, len(s.rec))
	}
	if len(m.slot) < size {
		m.slot = make([]int32, size)
	}
	for p, id := range ids {
		m.slot[id] = int32(p + 1)
	}
	for o, s := range stores {
		row := m.Cells[o*n : o*n+n]
		for p, id := range ids {
			row[p] = s.Counters(id)
		}
		m.Known[o], m.ForwardsSum[o] = s.Totals()
	}
}

// Save scatters the matrix back into the stores Load gathered it from.
func (m *Matrix) Save() {
	n := m.N
	for o, s := range m.stores {
		row := m.Cells[o*n : o*n+n]
		for p, id := range m.ids {
			s.rec[id] = row[p]
		}
		s.known, s.forwardsSum = m.Known[o], m.ForwardsSum[o]
	}
	for _, id := range m.ids {
		m.slot[id] = 0
	}
	m.stores, m.ids = nil, nil
}
