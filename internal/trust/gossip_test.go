package trust

import (
	"testing"

	"adhocga/internal/network"
)

// Gossip is exercised on a two-slot matrix: the student (slot 0, NodeID
// 99) merges from the teacher (slot 1, NodeID 98). Peers the tests
// observe are below 98, so they are outside the tournament and merge
// store to store; TestMergeParticipantColumns covers the matrix cells.

// mergeFrom runs one Merge of teacher into student and saves the matrix.
func mergeFrom(student, teacher *Store, minRate, weight float64, invert bool) {
	var m Matrix
	m.Load([]*Store{student, teacher}, []network.NodeID{99, 98}, 100)
	m.Merge(0, 1, minRate, weight, invert)
	m.Save()
}

func TestMergePositiveImportsGoodReports(t *testing.T) {
	teacher := NewStore()
	for i := 0; i < 10; i++ {
		observe(teacher, 5, true) // node 5: rate 1.0
	}
	student := NewStore()
	mergeFrom(student, teacher, 0.5, 0.5, false)
	rate, known := rateOf(student, 5)
	if !known {
		t.Fatal("positive report not imported")
	}
	if rate != 1.0 {
		t.Errorf("imported rate %v, want 1.0", rate)
	}
	// Weight 0.5 over 10 requests → 5 imported requests.
	if c := student.Counters(5); c.Requests != 5 || c.Forwards != 5 {
		t.Errorf("imported counters %d/%d, want 5/5", c.Forwards, c.Requests)
	}
}

func TestMergePositiveSkipsNegativeReports(t *testing.T) {
	teacher := NewStore()
	for i := 0; i < 10; i++ {
		observe(teacher, 3, false) // node 3: rate 0
	}
	observe(teacher, 4, true) // node 4: rate 1
	student := NewStore()
	mergeFrom(student, teacher, 0.5, 0.5, false)
	if _, known := rateOf(student, 3); known {
		t.Error("negative report imported (CORE forbids it)")
	}
	if _, known := rateOf(student, 4); !known {
		t.Error("positive report dropped")
	}
}

func TestMergeInvertedLaundersDroppers(t *testing.T) {
	teacher := NewStore()
	for i := 0; i < 10; i++ {
		observe(teacher, 3, false) // node 3 drops everything…
		observe(teacher, 4, true)  // …node 4 forwards everything
	}
	student := NewStore()
	mergeFrom(student, teacher, 0.5, 0.5, true)
	// A liar reports 3 as a perfect forwarder and 4 as a dropper; only
	// the "positive" lie passes the filter.
	if c := student.Counters(3); c.Requests != 5 || c.Forwards != 5 {
		t.Errorf("laundered counters %d/%d, want 5/5", c.Forwards, c.Requests)
	}
	if _, known := rateOf(student, 4); known {
		t.Error("slander of a reliable forwarder passed the positive-only filter")
	}
}

func TestMergePositiveSkipsSelf(t *testing.T) {
	teacher := NewStore()
	observe(teacher, 99, true) // the student itself, seated in slot 0
	student := NewStore()
	mergeFrom(student, teacher, 0, 0.5, false)
	if _, known := rateOf(student, 99); known {
		t.Error("node imported gossip about itself")
	}
}

func TestMergeParticipantColumns(t *testing.T) {
	// Both stores know each other and node 5; the student's own column
	// (what the teacher saw of it) must not be imported.
	teacher, student := NewStore(), NewStore()
	for i := 0; i < 4; i++ {
		observe(teacher, 99, true) // the student itself
		observe(teacher, 5, true)
	}
	var m Matrix
	m.Load([]*Store{student, teacher, NewStore()}, []network.NodeID{99, 98, 5}, 100)
	m.Merge(0, 1, 0, 0.5, false)
	m.Save()
	if _, known := rateOf(student, 99); known {
		t.Error("node imported gossip about itself")
	}
	if c := student.Counters(5); c.Requests != 2 || c.Forwards != 2 {
		t.Errorf("participant column merged as %d/%d, want 2/2", c.Forwards, c.Requests)
	}
	if known, fsum := student.Totals(); known != 1 || fsum != 2 {
		t.Errorf("student totals %d/%d, want 1/2", known, fsum)
	}
}

func TestMergePositiveZeroWeightNoOp(t *testing.T) {
	teacher := NewStore()
	observe(teacher, 1, true)
	student := NewStore()
	mergeFrom(student, teacher, 0, 0, false)
	if known, _ := student.Totals(); known != 0 {
		t.Error("zero weight still imported data")
	}
}

func TestMergePositiveTinyWeightFloors(t *testing.T) {
	teacher := NewStore()
	observe(teacher, 1, true)
	student := NewStore()
	mergeFrom(student, teacher, 0, 0.01, false)
	// One observation at weight 0.01 rounds to 0 but floors to 1 request;
	// forwards round to 0, capped at requests.
	if c := student.Counters(1); c.Requests != 1 {
		t.Errorf("requests = %d, want 1", c.Requests)
	}
}

func TestMergePositiveKeepsActivityMeanConsistent(t *testing.T) {
	teacher := NewStore()
	for i := 0; i < 8; i++ {
		observe(teacher, 1, true)
	}
	student := NewStore()
	observe(student, 2, true)
	observe(student, 2, true)
	mergeFrom(student, teacher, 0, 0.5, false)
	// Node 1 imported with 4 forwards; node 2 has 2 → sum 6 over 2 nodes.
	if known, fsum := student.Totals(); known != 2 || fsum != 6 {
		t.Errorf("totals after merge = %d/%d, want 2/6", known, fsum)
	}
}

func TestMergePositiveAccumulates(t *testing.T) {
	teacher := NewStore()
	for i := 0; i < 4; i++ {
		observe(teacher, 1, true)
	}
	student := NewStore()
	mergeFrom(student, teacher, 0, 0.5, false)
	mergeFrom(student, teacher, 0, 0.5, false)
	if c := student.Counters(1); c.Requests != 4 {
		t.Errorf("double merge requests = %d, want 4 (additive)", c.Requests)
	}
}

func TestMergeSaturatesCounters(t *testing.T) {
	teacher, student := NewStore(), NewStore()
	teacher.EnsureSize(2)
	teacher.rec[1] = Counters{Requests: 1 << 31, Forwards: 1 << 31}
	teacher.known, teacher.forwardsSum = 1, 1<<31
	student.EnsureSize(2)
	student.rec[1] = Counters{Requests: 1 << 31, Forwards: 1 << 31}
	student.known, student.forwardsSum = 1, 1<<31
	mergeFrom(student, teacher, 0, 1, false)
	c := student.Counters(1)
	if c.Requests != 1<<32-1 || c.Forwards != 1<<32-1 {
		t.Errorf("merged counters %d/%d, want both saturated", c.Forwards, c.Requests)
	}
	if _, fsum := student.Totals(); fsum != 1<<32-1 {
		t.Errorf("forwards sum %d, want the saturated pf", fsum)
	}
}
