package adhocga

// Load proof for the streaming hub (ISSUE: the tentpole acceptance
// criterion): thousands of concurrent live subscribers on one running
// job, with flat per-subscriber memory, a producer that never stalls past
// its deadline, and no meaningful effect on the job's wall-clock. The
// bounds are deliberately loose — CI shares one core — and the measured
// numbers are logged so the trajectory is visible in test output.

import (
	"context"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"
)

const loadSubscribers = 5000

// loadEvolveConfig is a cheap-but-real GA workload: a couple of seconds
// of generations on one core, emitting one event per generation.
func loadEvolveConfig(seed uint64) EvolutionConfig {
	cfg := DefaultEvolutionConfig(PaperEnvironments()[:1], ShorterPaths(), seed)
	cfg.PopulationSize = 20
	cfg.Eval.TournamentSize = 10
	cfg.Eval.Tournament.Rounds = 10
	cfg.Generations = 3000
	return cfg
}

func runEvolveWall(t *testing.T, s *Session, attach func(*Job)) time.Duration {
	t.Helper()
	start := time.Now()
	job, err := s.Submit(context.Background(), EvolveSpec{Config: loadEvolveConfig(11)})
	if err != nil {
		t.Fatal(err)
	}
	if attach != nil {
		attach(job)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

func TestStreamLoadThousandsOfSubscribers(t *testing.T) {
	if testing.Short() {
		t.Skip("load test: skipped in -short mode")
	}
	s := NewSession(WithPoolSize(1))
	defer s.Close()

	// One warm-up run, then time the identical workload bare.
	runEvolveWall(t, s, nil)
	bare := runEvolveWall(t, s, nil)

	// The loaded run: the same workload with thousands of live viewers
	// attached the moment the job exists. Every subscriber validates its
	// own stream (monotonic Seq, terminal done) and reports back.
	type outcome struct {
		events int
		err    error
		ok     bool
	}
	results := make([]outcome, loadSubscribers)
	var wg sync.WaitGroup
	var loadedJob *Job
	loaded := runEvolveWall(t, s, func(job *Job) {
		loadedJob = job
		wg.Add(loadSubscribers)
		for i := 0; i < loadSubscribers; i++ {
			go func(i int) {
				defer wg.Done()
				sub := job.Subscribe(context.Background(), SubscribeOptions{
					Live: true, Policy: DropResync,
				})
				o := outcome{ok: true}
				last := -1
				for e := range follow(sub) {
					if e.Seq <= last {
						o.ok = false
					}
					last = e.Seq
					o.events++
					if o.events == 1 && i == 0 {
						// One subscriber spot-checks attachment mid-run.
						if job.StreamStats().Subscribers == 0 {
							o.ok = false
						}
					}
				}
				_, _, o.err = sub.Next()
				results[i] = o
			}(i)
		}
	})
	wg.Wait()
	stats := loadedJob.StreamStats()

	delivered := 0
	for i, o := range results {
		if !o.ok {
			t.Fatalf("subscriber %d saw a non-monotonic stream", i)
		}
		if o.err != io.EOF {
			t.Fatalf("subscriber %d ended with %v, want io.EOF", i, o.err)
		}
		if o.events == 0 {
			t.Fatalf("subscriber %d received no events (not even done)", i)
		}
		delivered += o.events
	}
	t.Logf("load: %d subscribers, %d events emitted, %d delivered (mean %.1f/sub), %d resyncs",
		loadSubscribers, stats.Emitted, delivered, float64(delivered)/loadSubscribers, stats.Resyncs)
	t.Logf("wall: bare %v, loaded %v (ratio %.2f)", bare, loaded, float64(loaded)/float64(bare))

	// Producer isolation: live viewers are DropResync, so no append ever
	// waited on them.
	if stats.MaxStall != 0 {
		t.Errorf("producer stalled %v with only DropResync subscribers attached", stats.MaxStall)
	}
	if stats.Evictions != 0 {
		t.Errorf("%d live viewers were evicted; DropResync must resync instead", stats.Evictions)
	}
	if stats.Subscribers != 0 {
		t.Errorf("%d subscribers still attached after the terminal event", stats.Subscribers)
	}
	// Wall-clock: generous — the subscribers burn real CPU on the same
	// single core, but the job must not be serialized behind them. The
	// race detector gets its own factor (stream_load_race_test.go).
	if limit := loadWallFactor*bare + 10*time.Second; loaded > limit {
		t.Errorf("loaded run took %v, limit %v (bare %v): fan-out is stalling the producer", loaded, limit, bare)
	}
}

func TestStreamSubscriberMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("load test: skipped in -short mode")
	}
	// Attach thousands of idle subscribers to a quiet hub and measure the
	// marginal footprint: heap (the cursor and its map entries) plus
	// goroutine stacks (none: a subscription runs no goroutine). The
	// point is flatness — cost per subscriber independent of job length,
	// which the ring guarantees by construction.
	j := testJob(HubConfig{})
	readMem := func() (heap, stack uint64) {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc, m.StackInuse
	}
	heap0, stack0 := readMem()
	subs := make([]*Subscription, loadSubscribers)
	for i := range subs {
		subs[i] = j.Subscribe(context.Background(), SubscribeOptions{
			Live: true, Policy: DropResync,
		})
	}
	heap1, stack1 := readMem()
	perSub := (heap1 - heap0 + stack1 - stack0) / loadSubscribers
	t.Logf("memory: %d subscribers, heap +%d KiB, stacks +%d KiB, %d B/subscriber",
		loadSubscribers, (heap1-heap0)>>10, (stack1-stack0)>>10, perSub)
	// The bound: 8 runs (6 plain, 2 under -race, amd64, Go 1.24) measured
	// 277–278 B every time. 512 B leaves room for another Go release's
	// map layout, while a goroutine per subscriber (a stack of at least
	// 2 KiB) fails it.
	if perSub > 512 {
		t.Errorf("%d bytes per idle subscriber; want at most 512", perSub)
	}

	// Emit a long stream: per-subscriber memory must not scale with the
	// event count (the old append-only log grew every subscriber's replay
	// source without bound).
	for g := 0; g < 20000; g++ {
		j.emit(genEvent(0, g))
	}
	heap2, _ := readMem()
	growth := int64(heap2) - int64(heap1)
	t.Logf("after 20000 events: heap %+d KiB total (%+d B/subscriber)",
		growth>>10, growth/loadSubscribers)
	if growth > loadSubscribers*(32<<10) {
		t.Errorf("heap grew %d B during the stream — per-subscriber cost is not flat", growth)
	}

	// Cleanly tear down: finish the job and read every cursor to its end.
	j.finish(nil, nil)
	for _, sub := range subs {
		for range follow(sub) {
		}
	}
	if n := j.StreamStats().Subscribers; n > 0 {
		t.Errorf("%d subscribers still attached after finish + drain", n)
	}
}
