package adhocga

// Tests for the sealed hub's snapshot: a hub whose ring never lapped drops
// its snapshot map at the seal and derives the snapshot from the ring, and
// every replay view must still equal what the eager map served.

import (
	"cmp"
	"context"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// refHub is the eager snapshot every hub kept before a sealed, unlapped
// hub started deriving it, kept as the reference the hub's views must
// reproduce: every event as stamped, and a map holding the latest event
// per stream over all of them.
type refHub struct {
	ring int // the hub's RingSize
	all  []Event
	snap map[streamKey]Event
}

func newRefHub(ring int) *refHub {
	if ring <= 0 {
		ring = DefaultRingSize
	}
	return &refHub{ring: ring, snap: map[streamKey]Event{}}
}

func (r *refHub) add(e Event) {
	e.Seq, e.Job = len(r.all), "job-t"
	r.all = append(r.all, e)
	r.snap[compactionKey(e)] = e
}

// start is the Seq of the oldest event the ring still holds.
func (r *refHub) start() int { return max(0, len(r.all)-r.ring) }

// snapRange is the latest event per stream whose Seq is in [lo, hi), in
// Seq order.
func (r *refHub) snapRange(lo, hi int) []Event {
	var out []Event
	for _, e := range r.snap {
		if e.Seq >= lo && e.Seq < hi {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// replay is what a From: from subscription to the sealed hub delivers:
// the snapshot of the lapped part of [from, start), then the ring.
func (r *refHub) replay(from int) []Event {
	from = min(from, len(r.all))
	start := r.start()
	if from >= start {
		return slices.Clone(r.all[from:])
	}
	return append(r.snapRange(from, start), r.all[start:]...)
}

// snapshotEvent builds one event from a byte: its kind, scenario and
// replicate, so a few bytes cover every compaction stream.
func snapshotEvent(b byte, gen int) Event {
	scenario, rep := int(b/5)%2, int(b/10)%3
	switch b % 5 {
	case 0:
		return Event{Kind: KindGeneration, Generation: &GenerationEvent{Scenario: scenario, Rep: rep, Gen: gen}}
	case 1:
		return Event{Kind: KindIslands, Islands: &IslandsEvent{Scenario: scenario, Rep: rep, Gen: gen}}
	case 2:
		return Event{Kind: KindChurn, Churn: &ChurnEvent{Scenario: scenario, Rep: rep, Gen: gen}}
	case 3:
		return Event{Kind: KindReplicate, Replicate: &ReplicateEvent{Done: gen, Total: 100}}
	default:
		return Event{Kind: KindCheckpoint, Checkpoint: &CheckpointEvent{Scenario: scenario, Rep: rep, Gen: gen}}
	}
}

// checkSealedSnapshot emits one event per byte of kinds into a hub of the
// given ring size, with a live viewer following from before the first
// event, seals it, and compares every replay view with the reference.
func checkSealedSnapshot(t *testing.T, ring int, kinds []byte) {
	t.Helper()
	j := testJob(HubConfig{RingSize: ring})
	ref := newRefHub(ring)
	follower := j.Subscribe(context.Background(), SubscribeOptions{Live: true, Policy: DropResync})
	followed := make(chan []Event)
	go func() {
		var got []Event
		for e := range follow(follower) {
			got = append(got, e)
		}
		followed <- got
	}()
	for i, b := range kinds {
		e := snapshotEvent(b, i)
		j.emit(e)
		ref.add(e)
	}
	j.finish(nil, nil)
	ref.add(Event{Kind: KindDone, Done: &DoneEvent{State: JobDone}})
	if got := <-followed; len(got) == 0 || got[len(got)-1].Kind != KindDone {
		t.Fatalf("follower received %d events, not ending in done", len(got))
	}

	total, start := len(ref.all), ref.start()
	j.hub.mu.Lock()
	hubStart, snap, subs, guarded := j.hub.start, j.hub.snap, j.hub.subs, j.hub.guarded
	j.hub.mu.Unlock()
	if hubStart != start {
		t.Fatalf("hub start %d, reference %d (%d events, ring %d)", hubStart, start, total, ref.ring)
	}
	if lapped := start > 0; (snap != nil) != lapped {
		t.Errorf("sealed hub snapshot map %v after %d events in a %d-event ring", snap, total, ref.ring)
	}
	if subs != nil || guarded != nil {
		t.Errorf("sealed hub kept subscriber maps %v/%v after its last subscriber left", subs, guarded)
	}

	equal := func(label string, got, want []Event) {
		t.Helper()
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %d events %v, reference %d %v", label, len(got), seqs(got), len(want), seqs(want))
		}
	}
	want := ref.replay(0) // the snapshot of the lapped range, then the ring
	equal("Snapshot", j.Snapshot(), want)
	if got := j.StreamStats().Retained; got != len(want) {
		t.Errorf("StreamStats().Retained = %d, reference %d", got, len(want))
	}
	equal("live", drainSub(t, j.Subscribe(context.Background(), SubscribeOptions{Live: true, Policy: DropResync})), ref.snapRange(0, total))
	for from := 0; from <= total+1; from++ {
		equal("replay", drainSub(t, j.Subscribe(context.Background(), SubscribeOptions{From: from})), ref.replay(from))
	}

	j.hub.mu.Lock()
	subs, guarded = j.hub.subs, j.hub.guarded
	j.hub.mu.Unlock()
	if subs != nil || guarded != nil {
		t.Errorf("sealed hub kept subscriber maps %v/%v after the replays detached", subs, guarded)
	}
}

func seqs(events []Event) []int {
	out := make([]int, len(events))
	for i, e := range events {
		out[i] = e.Seq
	}
	return out
}

// TestSealedSnapshotMatchesReference drives random event sequences into
// rings both larger and smaller than the sequence, so seals with and
// without an overwritten event are both covered.
func TestSealedSnapshotMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(23, 5))
	for trial := 0; trial < 200; trial++ {
		kinds := make([]byte, r.IntN(80))
		for i := range kinds {
			kinds[i] = byte(r.IntN(256))
		}
		ring := []int{0, 1 + r.IntN(len(kinds)+1), len(kinds) + 1 + r.IntN(8)}[trial%3]
		checkSealedSnapshot(t, ring, kinds)
	}
}

// FuzzSealedSnapshot runs the same comparison on fuzz-chosen sequences:
// the first byte picks the ring size (1–40), each later byte one event.
func FuzzSealedSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{39, 0, 1, 2, 3, 4, 5, 10, 15, 20, 25})
	f.Add([]byte{2, 0, 0, 1, 3, 3, 4, 0, 10, 20})
	f.Add([]byte{7, 0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 1, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			checkSealedSnapshot(t, 1, nil)
			return
		}
		kinds := data[1:]
		if len(kinds) > 200 {
			kinds = kinds[:200]
		}
		checkSealedSnapshot(t, 1+int(data[0])%40, kinds)
	})
}
