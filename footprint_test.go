package adhocga

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"adhocga/internal/scenario"
)

// TestFinishedJobFootprint bounds what a long-lived session keeps per
// finished job. It runs 256 daemon-shaped jobs (8 generations, 40
// rounds, CSN 0, 10 or 20, alternating one replicate at parallelism 1
// and two at parallelism 2) on a Session that retains 256, drains each
// through Frame as the WebSocket handler does, and bounds the live-heap
// growth at 6 KiB per retained job: the fitted event ring, the census as
// packed sorted rows, and no cached frames, snapshot map or subscriber
// maps. It also checks that each finished hub holds none of the last
// three.
func TestFinishedJobFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 256 jobs: skipped in -short mode")
	}
	const jobs = 256
	s := NewSession(WithPoolSize(2), WithJobRetention(jobs))
	defer s.Close()
	rnd := rand.New(rand.NewPCG(20, 7))
	run := func(k int) {
		reps, par := 1, 1
		if k%2 == 1 {
			reps, par = 2, 2
		}
		spec := scenario.Spec{
			Name:         fmt.Sprintf("footprint j%d", k),
			Environments: []scenario.EnvSpec{{CSN: []int{0, 10, 20}[rnd.IntN(3)]}},
			Generations:  8,
			Rounds:       40,
			Repetitions:  reps,
			Seed:         rnd.Uint64()>>1 + 1,
		}
		ctx := context.Background()
		j, err := s.Submit(ctx, ScenariosSpec{Runs: []ScenarioRun{{Spec: spec}}, Opts: RunOptions{Parallelism: par}})
		if err != nil {
			t.Fatal(err)
		}
		for e := range follow(j.Subscribe(ctx, SubscribeOptions{})) {
			if _, err := j.Frame(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		j.hub.mu.Lock()
		defer j.hub.mu.Unlock()
		if j.hub.frames != nil || j.hub.snap != nil || j.hub.subs != nil || j.hub.guarded != nil {
			t.Errorf("finished job %d keeps frames %t, snapshot map %t, subscriber maps %t/%t", k,
				j.hub.frames != nil, j.hub.snap != nil, j.hub.subs != nil, j.hub.guarded != nil)
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	run(0) // first-use allocations of the session and engine are no job's
	before := liveHeap()
	for k := 1; k <= jobs; k++ {
		run(k)
	}
	perJob := (liveHeap() - before) / jobs
	t.Logf("%d retained jobs: %d B of live heap each", jobs, perJob)
	if perJob > 6<<10 {
		t.Errorf("each finished job keeps %d B of live heap, want at most 6 KiB", perJob)
	}
	if n := len(s.Jobs()); n != jobs {
		t.Errorf("session retains %d jobs, want %d", n, jobs)
	}
}
