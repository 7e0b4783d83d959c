package adhocga

// Tests for the streaming hub (hub.go) driven directly through a Job
// handle: replay and resume semantics, the bounded-retention contract,
// each backpressure policy, and a concurrent subscribe/unsubscribe/evict
// stress that the CI race job runs under -race.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"runtime"
	"testing"
	"time"
)

// testJob returns a Job wired like Session.Submit does, minus the
// session: events are appended directly with emit/finish.
func testJob(cfg HubConfig) *Job {
	j := newJob("job-t", "test", cfg, nil)
	j.cancel = func() {}
	return j
}

// tunedJob is testJob with, when deadline > 0, the hub's block deadline
// shrunk, so backpressure engages within milliseconds.
func tunedJob(ring int, deadline time.Duration) *Job {
	j := testJob(HubConfig{RingSize: ring})
	if deadline > 0 {
		j.hub.blockDeadline = deadline
	}
	return j
}

func genEvent(rep, gen int) Event {
	return Event{Kind: KindGeneration, Generation: &GenerationEvent{Rep: rep, Gen: gen}}
}

// follow ranges over a subscription's cursor: every event Next returns,
// parking on its wake channel in between, until the stream ends.
func follow(sub *Subscription) iter.Seq[Event] {
	return func(yield func(Event) bool) {
		for {
			e, wake, err := sub.Next()
			if err != nil {
				return
			}
			if wake != nil {
				<-wake
				continue
			}
			if !yield(e) {
				return
			}
		}
	}
}

// drain reads a subscription to exhaustion, asserting strictly-increasing
// sequence numbers, and returns the events.
func drainSub(t *testing.T, sub *Subscription) []Event {
	t.Helper()
	var events []Event
	for e := range follow(sub) {
		if len(events) > 0 && e.Seq <= events[len(events)-1].Seq {
			t.Fatalf("sequence not increasing: %d after %d", e.Seq, events[len(events)-1].Seq)
		}
		events = append(events, e)
	}
	return events
}

func TestHubReplayWithinRing(t *testing.T) {
	j := testJob(HubConfig{})
	for g := 0; g < 10; g++ {
		j.emit(genEvent(0, g))
	}
	j.finish(nil, nil)

	// The zero-value subscription replays everything: 10 generations plus
	// the terminal done, Seq 0..10 with no gaps.
	sub := j.Subscribe(context.Background(), SubscribeOptions{})
	events := drainSub(t, sub)
	if len(events) != 11 {
		t.Fatalf("replayed %d events, want 11", len(events))
	}
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d: replay within ring capacity must be gapless", i, e.Seq)
		}
		if e.Job != "job-t" {
			t.Fatalf("event %d job %q", i, e.Job)
		}
	}
	if events[10].Kind != KindDone {
		t.Errorf("last event %+v, want done", events[10])
	}
	if _, _, err := sub.Next(); err != io.EOF {
		t.Errorf("complete replay ended with err %v, want io.EOF", err)
	}
}

func TestHubResumeFrom(t *testing.T) {
	j := testJob(HubConfig{})
	for g := 0; g < 10; g++ {
		j.emit(genEvent(0, g))
	}
	j.finish(nil, nil)

	sub := j.Subscribe(context.Background(), SubscribeOptions{From: 5})
	events := drainSub(t, sub)
	if len(events) == 0 || events[0].Seq != 5 {
		t.Fatalf("resume From=5 delivered %+v", events)
	}
	if events[len(events)-1].Kind != KindDone {
		t.Error("resumed stream missing terminal event")
	}

	// Subscribing past the end of a finished stream yields nothing.
	empty := drainSub(t, j.Subscribe(context.Background(), SubscribeOptions{From: 1000}))
	if len(empty) != 0 {
		t.Errorf("From past end delivered %d events", len(empty))
	}
}

func TestHubBoundedRetention(t *testing.T) {
	// A long job on a small ring: memory stays bounded and a late replay
	// gets the compacted snapshot of the evicted range plus the ring tail.
	j := testJob(HubConfig{RingSize: 16})
	const gens, reps = 100, 2
	for g := 0; g < gens; g++ {
		for r := 0; r < reps; r++ {
			j.emit(genEvent(r, g))
		}
	}
	j.finish(nil, nil)

	total := gens*reps + 1
	if got := j.EventCount(); got != total {
		t.Fatalf("EventCount = %d, want %d", got, total)
	}
	retained := j.Snapshot()
	// Bound: at most one snapshot entry per stream (2 generation streams)
	// plus the ring.
	if len(retained) > reps+16 {
		t.Fatalf("retained %d events, want <= %d: retention is not bounded", len(retained), reps+16)
	}
	for i := 1; i < len(retained); i++ {
		if retained[i].Seq <= retained[i-1].Seq {
			t.Fatalf("retained events out of order at %d", i)
		}
	}
	if last := retained[len(retained)-1]; last.Kind != KindDone {
		t.Errorf("retained tail %+v, want done", last)
	}

	// A full replay of the finished job sees exactly the retained view.
	events := drainSub(t, j.Subscribe(context.Background(), SubscribeOptions{}))
	if len(events) != len(retained) {
		t.Fatalf("replay delivered %d events, Snapshot has %d", len(events), len(retained))
	}
	if events[0].Seq == 0 {
		t.Error("replay of a compacted job still starts at seq 0: nothing was evicted?")
	}
	stats := j.StreamStats()
	if stats.Emitted != total || stats.Retained != len(retained) {
		t.Errorf("stats %+v inconsistent with EventCount %d / Snapshot %d", stats, total, len(retained))
	}
}

func TestHubLiveSubscriberResyncsInsteadOfStalling(t *testing.T) {
	// A live DropResync viewer that stops reading gets lapped: it must be
	// skipped ahead via the snapshot — counted in Resyncs — and
	// the producer must never wait on it (MaxStall stays 0).
	j := tunedJob(8, 0)
	sub := j.Subscribe(context.Background(), SubscribeOptions{Live: true, Policy: DropResync})
	const gens = 200
	for g := 0; g < gens; g++ {
		j.emit(genEvent(0, g))
	}
	j.finish(nil, nil)

	events := drainSub(t, sub) // drain asserts monotonic Seq across resyncs
	if len(events) == 0 || events[len(events)-1].Kind != KindDone {
		t.Fatalf("lapped live viewer ended without done (%d events)", len(events))
	}
	if len(events) >= gens+1 {
		t.Errorf("lapped viewer received all %d events: never resynced?", len(events))
	}
	if _, _, err := sub.Next(); err != io.EOF {
		t.Errorf("resynced viewer ended with err %v, want io.EOF", err)
	}
	stats := j.StreamStats()
	if stats.Resyncs == 0 {
		t.Error("lapped viewer caused 0 resyncs")
	}
	if stats.MaxStall != 0 {
		t.Errorf("producer stalled %v on a DropResync-only hub", stats.MaxStall)
	}
	if stats.Resyncs == 0 || stats.Evictions != 0 {
		t.Errorf("stats %+v, want resyncs > 0 and no evictions", stats)
	}
}

func TestHubSlowArchivalSubscriberEvicted(t *testing.T) {
	// A BlockWithDeadline subscriber that reads a few events and then
	// stops: the producer waits at most the block deadline for it, then
	// evicts it with ErrSlowSubscriber and moves on — it is never blocked
	// indefinitely.
	const deadline = 50 * time.Millisecond
	j := tunedJob(8, deadline)
	sub := j.Subscribe(context.Background(), SubscribeOptions{Policy: BlockWithDeadline})
	const read = 3
	var received []Event
	for g := 0; g < read; g++ {
		j.emit(genEvent(0, g))
		e, wake, err := sub.Next()
		if err != nil || wake != nil {
			t.Fatalf("Next after emit %d: wake %v, err %v", g, wake, err)
		}
		received = append(received, e)
	}

	start := time.Now()
	const gens = 40 // well past the ring: guarantees a lap
	for g := read; g < gens; g++ {
		j.emit(genEvent(0, g))
	}
	j.finish(nil, nil)
	elapsed := time.Since(start)

	// The producer side: exactly one bounded stall, then free flow.
	if elapsed > deadline+5*time.Second {
		t.Fatalf("producer blocked %v emitting past a dead subscriber", elapsed)
	}
	stats := j.StreamStats()
	if stats.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", stats.Evictions)
	}
	if stats.MaxStall < deadline/2 || stats.MaxStall > deadline+5*time.Second {
		t.Errorf("MaxStall = %v, want ~%v", stats.MaxStall, deadline)
	}

	// The subscriber side: what it received before the eviction is
	// gap-free, the stream ends there, and Err explains why.
	received = append(received, drainSub(t, sub)...)
	for i, e := range received {
		if e.Seq != i {
			t.Fatalf("evicted subscriber received seq %d at position %d: its stream has a gap", e.Seq, i)
		}
	}
	if len(received) != read {
		t.Errorf("evicted subscriber received %d events, read %d before it stopped", len(received), read)
	}
	if _, _, err := sub.Next(); err != ErrSlowSubscriber {
		t.Errorf("Next after eviction: err %v, want ErrSlowSubscriber", err)
	}
}

func TestHubSubscriberDetachOnContextCancel(t *testing.T) {
	j := testJob(HubConfig{})
	j.emit(genEvent(0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	sub := j.Subscribe(ctx, SubscribeOptions{})
	if e, _, err := sub.Next(); err != nil || e.Seq != 0 {
		t.Fatalf("first event %+v, err %v", e, err)
	}
	// Park the reader on the wake channel, then detach: the detach must
	// wake it, and Next must report the context's error.
	_, wake, err := sub.Next()
	if wake == nil || err != nil {
		t.Fatalf("caught-up cursor: wake %v, err %v", wake, err)
	}
	cancel()
	<-wake
	if _, _, err := sub.Next(); err != context.Canceled {
		t.Errorf("Next after detach: err %v, want context.Canceled", err)
	}
	// The job is unaffected: emit still works and the stats show the
	// subscriber gone.
	j.emit(genEvent(0, 1))
	j.finish(nil, nil)
	if stats := j.StreamStats(); stats.Subscribers != 0 {
		t.Errorf("detached subscriber still attached: %+v", stats)
	}
}

func TestHubConcurrentSubscribeUnsubscribeEvict(t *testing.T) {
	// Race-detector stress (the CI race job runs this package with
	// -race): one producer on a tiny ring, churning subscribers of every
	// policy — some draining, some abandoned mid-stream, some too slow to
	// live — plus concurrent stats/snapshot readers.
	j := tunedJob(8, time.Millisecond)
	const gens = 300
	go func() {
		for g := 0; g < gens; g++ {
			j.emit(genEvent(g%3, g))
		}
		j.finish(nil, nil)
	}()

	policies := []Backpressure{BlockWithDeadline, DropResync}
	done := make(chan struct{})
	for w := 0; w < 12; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 30; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				sub := j.Subscribe(ctx, SubscribeOptions{
					Live:   i%2 == 0,
					Policy: policies[(w+i)%len(policies)],
				})
				reads := 0
				for range follow(sub) {
					if reads++; i%3 == 0 && reads > w {
						cancel() // abandon mid-stream
					}
				}
				cancel()
				_, _, _ = sub.Next() // exercised for the race detector, any outcome is legal
			}
		}(w)
	}
	go func() {
		defer func() { done <- struct{}{} }()
		for j.State() != JobDone {
			j.StreamStats()
			j.Snapshot()
			j.EventCount()
		}
	}()
	for i := 0; i < 13; i++ {
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("stress workers did not converge")
		}
	}
	if stats := j.StreamStats(); stats.Subscribers != 0 || stats.Emitted != gens+1 {
		t.Errorf("post-stress stats %+v", stats)
	}
}

// TestFrameCache pins the shared frame cache's contract: encodings are
// byte-identical to a plain marshal, repeat deliveries of one event share
// the cached bytes, a lapped ring slot never serves the previous
// occupant's frame, and — the emit-path guarantee — a hub nobody streams
// never materializes a cache entry at all.
func TestFrameCache(t *testing.T) {
	j := testJob(HubConfig{RingSize: 4})
	for i := 0; i < 4; i++ {
		j.emit(genEvent(0, i))
	}

	// Emit alone must not touch the cache: a job without streaming
	// viewers pays nothing for the cache's existence.
	if cached := frameCache(j); cached != nil {
		t.Errorf("frame cache %v allocated before any frame() call", cached)
	}

	events := j.Snapshot()
	e := events[len(events)-1]
	want, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := j.Frame(e)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(want) {
		t.Fatalf("frame %s, marshal %s", b1, want)
	}
	b2, err := j.Frame(e)
	if err != nil {
		t.Fatal(err)
	}
	if &b1[0] != &b2[0] {
		t.Error("second delivery re-encoded instead of sharing the cached frame")
	}

	// Lap the slot: four more events overwrite the whole ring. The old
	// event's frame must not be served for the new occupant, and the
	// lapped event itself still encodes correctly via the fallback.
	for i := 4; i < 8; i++ {
		j.emit(genEvent(0, i))
	}
	fresh := j.Snapshot()[len(j.Snapshot())-1]
	fb, err := j.Frame(fresh)
	if err != nil {
		t.Fatal(err)
	}
	fwant, _ := json.Marshal(fresh)
	if string(fb) != string(fwant) {
		t.Fatalf("post-lap frame %s, want %s", fb, fwant)
	}
	ob, err := j.Frame(e) // lapped out of the ring: plain-marshal fallback
	if err != nil {
		t.Fatal(err)
	}
	if string(ob) != string(want) {
		t.Fatalf("lapped-event frame %s, want %s", ob, want)
	}

	// A subscriber fans the rest out through the cache; when it leaves
	// the sealed hub, the cache goes with it.
	sub := j.Subscribe(context.Background(), SubscribeOptions{})
	j.finish(nil, nil)
	served := map[int][]byte{}
	for e := range follow(sub) {
		b, err := j.Frame(e)
		if err != nil {
			t.Fatal(err)
		}
		served[e.Seq] = b
	}
	if cached := frameCache(j); cached != nil {
		t.Errorf("sealed hub kept %d cached frames after its last subscriber left", len(cached))
	}
	// Frames re-marshalled after the release are byte-identical, and
	// serving them does not refill the cache of the sealed, idle hub.
	for _, e := range j.Snapshot() {
		b, err := j.Frame(e)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != string(served[e.Seq]) {
			t.Errorf("seq %d re-marshalled as %s, served %s", e.Seq, b, served[e.Seq])
		}
	}
	if cached := frameCache(j); cached != nil {
		t.Errorf("Frame on a sealed, idle hub cached %d frames", len(cached))
	}
}

// frameCache returns the hub's frame slots that hold an encoding, by
// Seq, or nil when there are none.
func frameCache(j *Job) map[int][]byte {
	j.hub.mu.Lock()
	defer j.hub.mu.Unlock()
	if j.hub.frames == nil {
		return nil
	}
	var cached map[int][]byte
	for seq := j.hub.start; seq < j.hub.total; seq++ {
		if b := j.hub.frames[seq%len(j.hub.ring)]; b != nil {
			if cached == nil {
				cached = map[int][]byte{}
			}
			cached[seq] = b
		}
	}
	return cached
}

// TestHubSealFitsRing pins the seal's re-layout: once the terminal event
// is in, the ring holds exactly the retained events, and every replay
// (from the start, from each resume point, live) delivers what the
// unshrunk ring did — the same Seqs, the snapshot of a lapped range, and
// frames byte-identical to a plain marshal.
func TestHubSealFitsRing(t *testing.T) {
	for _, tc := range []struct {
		name        string
		ring, total int
	}{
		{"done only", 0, 1},
		{"below first growth", 0, 63},
		{"at first growth", 0, 64},
		{"past first growth", 0, 65},
		{"lapped", 16, 41},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := testJob(HubConfig{RingSize: tc.ring})
			// The model: every event as emitted, stamped, and the latest
			// Seq of each compaction stream, which a lapped range
			// replays as.
			var all []Event
			latest := map[streamKey]int{}
			record := func(e Event) {
				e.Seq, e.Job = len(all), "job-t"
				all = append(all, e)
				latest[compactionKey(e)] = e.Seq
			}
			for i := 0; i < tc.total-1; i++ {
				e := genEvent(i%3, i/3)
				j.emit(e)
				record(e)
			}
			j.finish(nil, nil)
			record(Event{Kind: KindDone, Done: &DoneEvent{State: JobDone}})

			j.hub.mu.Lock()
			start, ringLen := j.hub.start, len(j.hub.ring)
			j.hub.mu.Unlock()
			if ringLen != tc.total-start {
				t.Errorf("sealed ring has %d slots, holds %d events", ringLen, tc.total-start)
			}
			if lapped := tc.ring > 0 && tc.total > tc.ring; lapped != (start > 0) {
				t.Errorf("start %d with %d events in a %d-event ring", start, tc.total, tc.ring)
			}

			want := func(from int, live bool) []Event {
				var out []Event
				for _, e := range all {
					isLatest := latest[compactionKey(e)] == e.Seq
					if live && isLatest || !live && e.Seq >= from && (e.Seq >= start || isLatest) {
						out = append(out, e)
					}
				}
				return out
			}
			check := func(label string, opts SubscribeOptions, expect []Event) {
				t.Helper()
				got := drainSub(t, j.Subscribe(context.Background(), opts))
				if len(got) != len(expect) {
					t.Fatalf("%s: %d events, want %d", label, len(got), len(expect))
				}
				for i, e := range got {
					b, err := j.Frame(e)
					if err != nil {
						t.Fatal(err)
					}
					wb, _ := json.Marshal(expect[i])
					if string(b) != string(wb) {
						t.Fatalf("%s: event %d frame %s, want %s", label, i, b, wb)
					}
				}
			}
			for from := 0; from <= tc.total; from++ {
				check(fmt.Sprintf("from %d", from), SubscribeOptions{From: from}, want(from, false))
			}
			check("live", SubscribeOptions{Live: true, Policy: DropResync}, want(0, true))
		})
	}
}

// TestIdleSubscriptionsHoldNoGoroutine: a subscription is a cursor its
// reader drives, so attaching 1,000 of them to a quiet hub — live and
// replaying, under both policies, on a context that can still detach
// them — starts no goroutine, and detaching them all leaves none behind.
func TestIdleSubscriptionsHoldNoGoroutine(t *testing.T) {
	const subs, slack = 1000, 10
	j := testJob(HubConfig{})
	for g := 0; g < 10; g++ {
		j.emit(genEvent(0, g))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := runtime.NumGoroutine()
	policies := []Backpressure{BlockWithDeadline, DropResync}
	for i := 0; i < subs; i++ {
		j.Subscribe(ctx, SubscribeOptions{Live: i%2 == 0, Policy: policies[i/2%2]})
	}
	if grown := runtime.NumGoroutine() - before; grown > slack {
		t.Errorf("%d idle subscriptions hold %d goroutines", subs, grown)
	}
	if n := j.StreamStats().Subscribers; n != subs {
		t.Fatalf("%d subscribers attached, want %d", n, subs)
	}

	cancel()
	deadline := time.Now().Add(10 * time.Second)
	for j.StreamStats().Subscribers > 0 || runtime.NumGoroutine()-before > slack {
		if time.Now().After(deadline) {
			t.Fatalf("after the detach: %d subscribers, %d goroutines above the start",
				j.StreamStats().Subscribers, runtime.NumGoroutine()-before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEventsBreakDetaches: a library caller that leaves a Job.Events loop
// after one event must not hold up the job. The job then emits well past
// its ring at the hub's full one-second block deadline; a subscription
// still attached would stall the producer for that second and be evicted.
func TestEventsBreakDetaches(t *testing.T) {
	j := tunedJob(8, 0)
	j.emit(genEvent(0, 0))
	for e := range j.Events() {
		if e.Seq != 0 {
			t.Fatalf("first event %+v", e)
		}
		break
	}
	for g := 1; g < 40; g++ {
		j.emit(genEvent(0, g))
	}
	j.finish(nil, nil)
	st := j.StreamStats()
	if st.MaxStall != 0 || st.Evictions != 0 {
		t.Errorf("abandoned loop held up the producer: MaxStall %v, Evictions %d; want 0, 0", st.MaxStall, st.Evictions)
	}
	if st.Subscribers != 0 {
		t.Errorf("%d subscribers still attached after the loop was left", st.Subscribers)
	}
}
