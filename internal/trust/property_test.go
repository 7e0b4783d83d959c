package trust

import (
	"math"
	"testing"

	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
)

// Property-based tests: a Store is driven through long random
// interleavings of every mutating operation (observe, resize, forget,
// reset, matrix round trips with in-matrix observations, gossip merges)
// against a naive counter model, checking after every step that the known
// count, the activity sum, and per-node counters stay exact.
//
// The model is deliberately dumb — two maps — so any disagreement indicts
// the Store or the Matrix, not the model.

type refModel struct {
	req, fwd map[int]uint64
}

func newRefModel() *refModel {
	return &refModel{req: map[int]uint64{}, fwd: map[int]uint64{}}
}

func (m *refModel) observe(id int, forwarded bool) {
	m.req[id]++
	if forwarded {
		m.fwd[id]++
	}
}

func (m *refModel) forget(id int) {
	delete(m.req, id)
	delete(m.fwd, id)
}

func (m *refModel) reset() {
	m.req = map[int]uint64{}
	m.fwd = map[int]uint64{}
}

// merge applies Matrix.Merge's honest (or, inverted, a liar's) rule for every
// peer src knows except self.
func (m *refModel) merge(src *refModel, self int, minRate, weight float64, invert bool) {
	for id := range src.req {
		if id == self {
			continue
		}
		fwd := src.fwd[id]
		if invert {
			fwd = src.req[id] - src.fwd[id]
		}
		if float64(fwd)/float64(src.req[id]) < minRate {
			continue
		}
		addReq := uint64(math.Round(float64(src.req[id]) * weight))
		if addReq == 0 {
			addReq = 1
		}
		addFwd := uint64(math.Round(float64(fwd) * weight))
		if addFwd > addReq {
			addFwd = addReq
		}
		m.req[id] += addReq
		m.fwd[id] += addFwd
	}
}

// checkAgainst verifies every invariant of s against the model.
func checkAgainst(t *testing.T, s *Store, m *refModel, band float64) {
	t.Helper()
	var sum uint64
	for id := range m.req {
		sum += m.fwd[id]
	}
	if known, fsum := s.Totals(); known != len(m.req) || fsum != sum {
		t.Fatalf("Totals = %d/%d, model %d/%d", known, fsum, len(m.req), sum)
	}
	for id := 0; id < len(s.rec)+2; id++ {
		nid := network.NodeID(id)
		c := s.Counters(nid)
		if uint64(c.Requests) != m.req[id] || uint64(c.Forwards) != m.fwd[id] {
			t.Fatalf("counters(%d) = %d/%d, model %d/%d", id, c.Requests, c.Forwards, m.req[id], m.fwd[id])
		}
		act, known := activityOf(s, nid, band)
		if known != (m.req[id] > 0) {
			t.Fatalf("activity of %d known = %v, model %v", id, known, m.req[id] > 0)
		}
		if !known {
			continue
		}
		av := float64(sum) / float64(len(m.req))
		srcF := float64(m.fwd[id])
		want := strategy.ActivityMedium
		switch {
		case srcF < av-band*av:
			want = strategy.ActivityLow
		case srcF > av+band*av:
			want = strategy.ActivityHigh
		}
		if act != want {
			t.Fatalf("activity of %d = %v, recompute %v", id, act, want)
		}
	}
}

func TestStorePropertyRandomInterleavings(t *testing.T) {
	const (
		seeds  = 8
		steps  = 400
		maxID  = 24
		band   = DefaultActivityBand
		selfID = maxID // outside the observed range
		peerID = maxID + 1
	)
	for seed := uint64(1); seed <= seeds; seed++ {
		r := rng.New(seed)
		s, m := NewStore(), newRefModel()
		// peer is a second store gossiped from, with its own model.
		peer, pm := NewStore(), newRefModel()

		for step := 0; step < steps; step++ {
			switch op := r.Intn(10); op {
			case 0, 1, 2: // single observation
				id := r.Intn(maxID)
				fwd := r.Bool(0.6)
				observe(s, network.NodeID(id), fwd)
				m.observe(id, fwd)
			case 3, 4: // a tournament: gather some participants, observe in the matrix, scatter
				n := 1 + r.Intn(6)
				ids := []network.NodeID{selfID}
				for len(ids) < n+1 {
					id := network.NodeID(r.Intn(maxID))
					dup := false
					for _, x := range ids {
						dup = dup || x == id
					}
					if !dup {
						ids = append(ids, id)
					}
				}
				stores := []*Store{s}
				for range ids[1:] {
					stores = append(stores, NewStore())
				}
				var mx Matrix
				mx.Load(stores, ids, 2*maxID)
				for k := 0; k < 5; k++ {
					p := 1 + r.Intn(n)
					fwd := r.Bool(0.5)
					c := &mx.Cells[p]
					if c.Requests == 0 {
						mx.Known[0]++
					}
					c.Requests++
					if fwd {
						c.Forwards++
						mx.ForwardsSum[0]++
					}
					m.observe(int(ids[p]), fwd)
				}
				mx.Save()
			case 5: // resize
				s.EnsureSize(r.Intn(2 * maxID))
			case 6: // forget (the dynamics identity-remap primitive)
				id := r.Intn(2 * maxID)
				s.Forget(network.NodeID(id))
				m.forget(id)
			case 7: // feed the gossip peer
				id := r.Intn(maxID)
				fwd := r.Bool(0.8)
				observe(peer, network.NodeID(id), fwd)
				pm.observe(id, fwd)
			case 8: // gossip merge, honest or lying, with some peers seated
				minRate := 0.5
				weight := 0.25 + r.Float64()*0.5
				invert := r.Bool(0.3)
				ids := []network.NodeID{selfID, peerID}
				stores := []*Store{s, peer}
				for k := r.Intn(3); k > 0; k-- {
					id := network.NodeID(r.Intn(maxID))
					dup := false
					for _, x := range ids {
						dup = dup || x == id
					}
					if !dup {
						ids = append(ids, id)
						stores = append(stores, NewStore())
					}
				}
				var mx Matrix
				mx.Load(stores, ids, 2*maxID)
				mx.Merge(0, 1, minRate, weight, invert)
				mx.Save()
				m.merge(pm, selfID, minRate, weight, invert)
			case 9: // generation reset (rare)
				if r.Bool(0.1) {
					s.Reset()
					m.reset()
				}
			}
			checkAgainst(t, s, m, band)
		}
	}
}

// TestForgetUnknownAndOutOfRangeIsNoOp pins Forget's edge cases directly.
func TestForgetUnknownAndOutOfRangeIsNoOp(t *testing.T) {
	s := NewStore()
	s.EnsureSize(4)
	observe(s, 1, true)
	s.Forget(2)   // known range, never observed
	s.Forget(100) // beyond the store
	if known, _ := s.Totals(); known != 1 || s.Counters(1).Requests == 0 {
		t.Errorf("no-op forgets disturbed the store: known=%d", known)
	}
	s.Forget(1)
	if known, fsum := s.Totals(); known != 0 || fsum != 0 || s.Counters(1) != (Counters{}) {
		t.Error("forget left the node known")
	}
	// Re-observation after forgetting starts from scratch.
	observe(s, 1, false)
	if rate, known := rateOf(s, 1); !known || rate != 0 {
		t.Errorf("re-observed node rate = %v/%v, want 0/true", rate, known)
	}
}

// TestMatrixRoundTrip: Load then Save with no play in between leaves
// every store as it was, and Save clears the participant marks so a later
// Load with other participants merges the former ones through the stores.
func TestMatrixRoundTrip(t *testing.T) {
	a, b, c := NewStore(), NewStore(), NewStore()
	observe(a, 1, true)
	observe(a, 7, false)
	observe(b, 0, true)
	var m Matrix
	m.Load([]*Store{a, b}, []network.NodeID{0, 1}, 8)
	if m.N != 2 || m.Cells[1] != (Counters{Requests: 1, Forwards: 1}) || m.Cells[2] != (Counters{Requests: 1, Forwards: 1}) {
		t.Fatalf("gathered cells %+v", m.Cells)
	}
	if m.Known[0] != 2 || m.ForwardsSum[0] != 1 {
		t.Fatalf("gathered totals %d/%d, want 2/1", m.Known[0], m.ForwardsSum[0])
	}
	m.Save()
	if a.Counters(7) != (Counters{Requests: 1}) || a.Counters(1) != (Counters{Requests: 1, Forwards: 1}) {
		t.Error("round trip changed a store")
	}
	// Node 0 now sits outside the matrix: b's report about it merges
	// through the stores.
	m.Load([]*Store{c, b}, []network.NodeID{2, 1}, 8)
	m.Merge(0, 1, 0, 1, false)
	m.Save()
	if c.Counters(0) != (Counters{Requests: 1, Forwards: 1}) {
		t.Errorf("non-participant merge gave %+v", c.Counters(0))
	}
}
