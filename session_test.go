package adhocga

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"adhocga/internal/core"
)

// smallConfig is a seconds-scale evolution configuration for session
// tests.
func smallConfig(gens int, seed uint64) EvolutionConfig {
	cfg := DefaultEvolutionConfig(PaperEnvironments()[:1], ShorterPaths(), seed)
	cfg.PopulationSize = 20
	cfg.Eval.TournamentSize = 10
	cfg.Eval.Tournament.Rounds = 10
	cfg.Generations = gens
	return cfg
}

// discard is the emit function of runs whose events a test ignores.
func discard(Event) {}

// drain collects a job's full event stream.
func drain(t *testing.T, j *Job) []Event {
	t.Helper()
	var out []Event
	for e := range j.Events() {
		out = append(out, e)
	}
	return out
}

// TestSessionEvolveBitIdenticalToEngine pins the redesign's core
// guarantee: a job submitted through the Session produces exactly the
// numbers the bare engine produces.
func TestSessionEvolveBitIdenticalToEngine(t *testing.T) {
	engine, err := core.New(smallConfig(4, 11))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := engine.Run(context.Background(), discard)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(WithPoolSize(2))
	defer s.Close()
	j, err := s.Submit(context.Background(), EvolveSpec{Config: smallConfig(4, 11)})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	viaSession := j.Result().(*EvolutionResult)
	if !reflect.DeepEqual(direct.CoopSeries, viaSession.CoopSeries) {
		t.Errorf("session path diverged:\nengine:  %v\nsession: %v", direct.CoopSeries, viaSession.CoopSeries)
	}
}

func TestSubmitEvolveStreamsGenerationEvents(t *testing.T) {
	s := NewSession()
	defer s.Close()
	const gens = 4
	j, err := s.Submit(context.Background(), EvolveSpec{Config: smallConfig(gens, 7)})
	if err != nil {
		t.Fatal(err)
	}
	events := drain(t, j)
	var genEvents int
	for i, e := range events {
		if e.Seq != i || e.Job != j.ID() {
			t.Errorf("event %d has seq %d job %q", i, e.Seq, e.Job)
		}
		if e.Kind == KindGeneration {
			if e.Generation == nil || e.Generation.Gen != genEvents {
				t.Errorf("generation event %d malformed: %+v", genEvents, e.Generation)
			}
			genEvents++
		}
	}
	if genEvents != gens {
		t.Errorf("%d generation events, want %d", genEvents, gens)
	}
	last := events[len(events)-1]
	if last.Kind != KindDone || last.Done == nil || last.Done.State != JobDone {
		t.Errorf("terminal event wrong: %+v", last)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Result().(*EvolutionResult); !ok {
		t.Errorf("result type %T", j.Result())
	}
	if j.State() != JobDone {
		t.Errorf("state %s", j.State())
	}
}

func TestSubmitScenariosStreamsReplicateAndGenerationEvents(t *testing.T) {
	s := NewSession(WithPoolSize(1))
	defer s.Close()
	spec, err := ScenarioFamilyByName("table4")
	if err != nil {
		t.Fatal(err)
	}
	runs := []ScenarioRun{{Spec: spec.Specs()[0], Seed: 5}}
	sc := Scale{Name: "test", Generations: 2, Rounds: 10, Repetitions: 2}
	j, err := s.Submit(context.Background(), ScenariosSpec{Runs: runs, Defaults: sc, Opts: RunOptions{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	events := drain(t, j)
	var reps, gens int
	for _, e := range events {
		switch e.Kind {
		case KindReplicate:
			reps++
			if e.Replicate.Total != 2 {
				t.Errorf("replicate total %d", e.Replicate.Total)
			}
		case KindGeneration:
			gens++
		}
	}
	if reps != 2 || gens != 4 {
		t.Errorf("replicate events %d (want 2), generation events %d (want 4)", reps, gens)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, ok := j.Result().([]*CaseResult)
	if !ok || len(res) != 1 {
		t.Fatalf("result %T", j.Result())
	}
	// The session path must agree with the bare experiment layer bit for
	// bit.
	direct, err := runBatch(runs, sc, RunOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res[0].CoopMean, direct[0].CoopMean) {
		t.Errorf("session scenario run diverged from the experiment layer")
	}
}

func TestSubmitIslandsStreamsIslandEvents(t *testing.T) {
	s := NewSession()
	defer s.Close()
	cfg := IslandConfig{Core: smallConfig(3, 9), Count: 2, Interval: 2}
	j, err := s.Submit(context.Background(), IslandsSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var islandEvents int
	for e := range j.Events() {
		if e.Kind == KindIslands {
			if len(e.Islands.PerIsland) != 2 {
				t.Errorf("island event has %d islands", len(e.Islands.PerIsland))
			}
			islandEvents++
		}
	}
	if islandEvents != 3 {
		t.Errorf("%d island events, want 3", islandEvents)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Result().(*IslandResult); !ok {
		t.Errorf("result type %T", j.Result())
	}
}

func TestSubmitChurnScenarioEmitsChurnEvents(t *testing.T) {
	s := NewSession()
	defer s.Close()
	cfg := smallConfig(4, 13)
	cfg.Dynamics = &DynamicsConfig{ChurnRate: 0.3, Interval: 2}
	j, err := s.Submit(context.Background(), EvolveSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var churns int
	for e := range j.Events() {
		if e.Kind == KindChurn {
			churns++
		}
	}
	if churns == 0 {
		t.Error("churning run emitted no churn events")
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestIslandChurnOncePerBarrier pins that an island run reports each
// dynamics barrier once, not once per island.
func TestIslandChurnOncePerBarrier(t *testing.T) {
	s := NewSession(WithPoolSize(1))
	defer s.Close()
	cfg := smallConfig(8, 13)
	cfg.Eval.TournamentSize = 8
	cfg.Dynamics = &DynamicsConfig{ChurnRate: 0.3, Interval: 2}
	j, err := s.Submit(context.Background(), IslandsSpec{Config: IslandConfig{Core: cfg, Count: 2, Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	perGen := map[int]int{}
	for _, e := range drain(t, j) {
		if e.Kind == KindChurn {
			perGen[e.Churn.Gen]++
		}
	}
	if want := map[int]int{1: 1, 3: 1, 5: 1}; !reflect.DeepEqual(perGen, want) {
		t.Errorf("churn events per generation %v, want %v", perGen, want)
	}
}

func TestSubmitSweepMixIPDRP(t *testing.T) {
	s := NewSession()
	defer s.Close()
	ctx := context.Background()

	// A CSN sweep is a batch of single-environment scenarios.
	sweep, err := s.RunScenarios(ctx, []ScenarioRun{
		{Spec: ScenarioSpec{Name: "CSN=0", Environments: []ScenarioEnv{{CSN: 0}}}},
		{Spec: ScenarioSpec{Name: "CSN=5", Environments: []ScenarioEnv{{CSN: 5}}}},
	}, Scale{Name: "test", Generations: 2, Rounds: 10, Repetitions: 1}, RunOptions{Seed: 3})
	if err != nil || len(sweep) != 2 {
		t.Fatalf("sweep: %v %v", sweep, err)
	}

	mix, err := s.RunMix(ctx, MixConfig{
		Groups: []MixGroup{{Profile: ProfileAllCooperate, Count: 10}},
		CSN:    2, Rounds: 20, Mode: ShorterPaths(), Game: DefaultGameConfig(), Seed: 4,
	})
	if err != nil || mix == nil {
		t.Fatalf("mix: %v %v", mix, err)
	}

	icfg := DefaultIPDRPConfig(5)
	icfg.Generations = 3
	icfg.Rounds = 10
	j, err := s.Submit(ctx, IPDRPSpec{Config: icfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if ires := j.Result().(*IPDRPResult); len(ires.CoopSeries) != 3 {
		t.Fatalf("ipdrp: %d generations", len(ires.CoopSeries))
	}
}

// TestCancellationStopsAtGenerationBarrier pins the redesign's
// cancellation contract: a cancelled evolve job stops at the next
// generation barrier, turns JobCancelled, and still delivers the partial
// cooperation series.
func TestCancellationStopsAtGenerationBarrier(t *testing.T) {
	s := NewSession()
	defer s.Close()
	const gens = 500 // would take minutes if cancellation failed
	j, err := s.Submit(context.Background(), EvolveSpec{Config: smallConfig(gens, 17)})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel after the second generation event arrives.
	seen := 0
	for e := range j.EventsContext(context.Background()) {
		if e.Kind == KindGeneration {
			if seen++; seen == 2 {
				j.Cancel()
				break
			}
		}
	}
	werr := j.Wait(context.Background())
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", werr)
	}
	if j.State() != JobCancelled {
		t.Errorf("state %s, want cancelled", j.State())
	}
	res, ok := j.Result().(*EvolutionResult)
	if !ok || res == nil {
		t.Fatalf("no partial result: %T", j.Result())
	}
	if n := len(res.CoopSeries); n < 2 || n >= gens {
		t.Errorf("partial series has %d generations, want a few", n)
	}
}

// TestCancelledJobFreesItsSlot pins the service-critical invariant: a
// killed job releases its concurrent-job slot so queued jobs run.
func TestCancelledJobFreesItsSlot(t *testing.T) {
	s := NewSession(WithMaxConcurrentJobs(1))
	defer s.Close()
	ctx := context.Background()
	long, err := s.Submit(ctx, EvolveSpec{Config: smallConfig(100000, 19)})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the long job is demonstrably running.
	for e := range long.EventsContext(ctx) {
		if e.Kind == KindGeneration {
			break
		}
	}
	queued, err := s.Submit(ctx, EvolveSpec{Config: smallConfig(2, 19)})
	if err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != JobQueued {
		t.Fatalf("second job state %s, want queued behind the slot", st)
	}
	long.Cancel()
	if err := long.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("long job: %v", err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := queued.Wait(waitCtx); err != nil {
		t.Fatalf("queued job never got the freed slot: %v", err)
	}
}

func TestCancelWhileQueued(t *testing.T) {
	s := NewSession(WithMaxConcurrentJobs(1))
	defer s.Close()
	ctx := context.Background()
	long, err := s.Submit(ctx, EvolveSpec{Config: smallConfig(100000, 23)})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(ctx, EvolveSpec{Config: smallConfig(2, 23)})
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	if err := queued.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued cancel: %v", err)
	}
	if queued.State() != JobCancelled {
		t.Errorf("state %s", queued.State())
	}
	long.Cancel()
	long.Wait(ctx)
}

func TestSessionCloseRejectsAndCancels(t *testing.T) {
	s := NewSession()
	j, err := s.Submit(context.Background(), EvolveSpec{Config: smallConfig(100000, 29)})
	if err != nil {
		t.Fatal(err)
	}
	s.Close() // must cancel the running job and wait for it
	if !j.State().Terminal() {
		t.Errorf("job state %s after Close", j.State())
	}
	if _, err := s.Submit(context.Background(), EvolveSpec{Config: smallConfig(2, 29)}); err == nil {
		t.Error("closed session accepted a job")
	}
}

func TestEventsReplayAfterCompletion(t *testing.T) {
	s := NewSession()
	defer s.Close()
	j, err := s.Submit(context.Background(), EvolveSpec{Config: smallConfig(3, 31)})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := drain(t, j)
	second := drain(t, j) // late subscriber: full replay
	if !reflect.DeepEqual(first, second) {
		t.Error("late subscription did not replay the identical stream")
	}
	if len(second) == 0 || second[len(second)-1].Kind != KindDone {
		t.Error("replayed stream not terminated by the done event")
	}
	if j.EventCount() != len(first) {
		t.Errorf("EventCount %d, log %d", j.EventCount(), len(first))
	}
}

func TestJobFailureState(t *testing.T) {
	s := NewSession()
	defer s.Close()
	bad := smallConfig(2, 1)
	bad.PopulationSize = 1 // invalid
	j, err := s.Submit(context.Background(), EvolveSpec{Config: bad})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err == nil {
		t.Fatal("invalid config did not fail the job")
	}
	if j.State() != JobFailed {
		t.Errorf("state %s, want failed", j.State())
	}
	events := drain(t, j)
	last := events[len(events)-1]
	if last.Done == nil || last.Done.State != JobFailed || last.Done.Error == "" {
		t.Errorf("terminal event %+v", last)
	}
}

func TestSessionLookupAndIDs(t *testing.T) {
	s := NewSession()
	defer s.Close()
	j1, _ := s.Submit(context.Background(), EvolveSpec{Config: smallConfig(1, 1)})
	j2, _ := s.Submit(context.Background(), EvolveSpec{Config: smallConfig(1, 2)})
	if j1.ID() != "job-1" || j2.ID() != "job-2" {
		t.Errorf("ids %s %s", j1.ID(), j2.ID())
	}
	if got, ok := s.Job("job-2"); !ok || got != j2 {
		t.Error("lookup failed")
	}
	if jobs := s.Jobs(); len(jobs) != 2 || jobs[0] != j1 {
		t.Error("Jobs() wrong")
	}
	j1.Wait(context.Background())
	j2.Wait(context.Background())
}

// TestJobRetentionEvictsOldTerminalJobs pins the daemon-critical bound:
// finished jobs beyond the retention cap drop out of lookup so a
// long-lived session's memory stays bounded.
func TestJobRetentionEvictsOldTerminalJobs(t *testing.T) {
	s := NewSession(WithJobRetention(2))
	defer s.Close()
	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, err := s.Submit(context.Background(), EvolveSpec{Config: smallConfig(1, uint64(40+i))})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if got := len(s.Jobs()); got != 2 {
		t.Fatalf("session retains %d jobs, want 2", got)
	}
	if _, ok := s.Job(jobs[0].ID()); ok {
		t.Error("oldest job still reachable past the retention bound")
	}
	if _, ok := s.Job(jobs[4].ID()); !ok {
		t.Error("newest job evicted")
	}
	// Held handles keep working after eviction.
	if jobs[0].State() != JobDone || len(drain(t, jobs[0])) == 0 {
		t.Error("evicted job's handle broke")
	}
}

// TestPruneReleasesEvictedJobs: one prune that evicts several terminal
// jobs leaves none of them in the order slice's backing array, where
// they and their hubs would stay reachable.
func TestPruneReleasesEvictedJobs(t *testing.T) {
	s := NewSession(WithJobRetention(1))
	defer s.Close()
	var jobs []*Job
	for i := range 4 {
		j := newJob(fmt.Sprintf("job-%d", i+1), "evolve", HubConfig{}, s.logger)
		j.cancel = func() {}
		j.finish(nil, nil)
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		jobs = append(jobs, j)
	}
	s.prune()
	if len(s.order) != 1 || s.order[0] != jobs[3] {
		t.Fatalf("prune kept %d jobs, want only the newest", len(s.order))
	}
	for i, j := range s.order[:cap(s.order)] {
		for _, evicted := range jobs[:3] {
			if j == evicted {
				t.Errorf("evicted %s still reachable at order[%d]", j.id, i)
			}
		}
	}
}

func TestEventJSONDeterministic(t *testing.T) {
	s := NewSession(WithPoolSize(1))
	defer s.Close()
	run := func() string {
		j, err := s.Submit(context.Background(), EvolveSpec{Config: smallConfig(2, 37)})
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for e := range j.Events() {
			b, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			buf = append(buf, b...)
			buf = append(buf, '\n')
		}
		return string(buf)
	}
	a, b := run(), run()
	// Job IDs differ between submissions; normalize them out.
	if len(a) != len(b) {
		t.Errorf("event NDJSON length differs between identical runs:\n%s\n---\n%s", a, b)
	}
}

func TestPartialSeriesFolding(t *testing.T) {
	var p PartialSeries
	if !p.empty() {
		t.Error("fresh accumulator not empty")
	}
	add := func(scen, rep, gen int, coop float64) {
		p.Add(Event{Kind: KindGeneration, Generation: &GenerationEvent{
			Scenario: scen, Rep: rep, Gen: gen, Coop: coop,
		}})
	}
	add(0, 0, 0, 0.2)
	add(0, 1, 0, 0.4)
	add(0, 0, 1, 0.6)
	p.Add(Event{Kind: KindReplicate, Replicate: &ReplicateEvent{Done: 1, Total: 2}}) // ignored
	if p.empty() || p.lastGeneration() != 1 {
		t.Errorf("lastGen %d", p.lastGeneration())
	}
	got := p.series(0)
	want := []float64{0.3, 0.6}
	if len(got) != len(want) {
		t.Fatalf("series %v, want %v", got, want)
	}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("series %v, want %v", got, want)
		}
	}
	if p.series(3) != nil {
		t.Error("unknown scenario should be nil")
	}
	// Gap fill: generation 3 observed, 2 missing.
	add(1, 0, 0, 0.1)
	add(1, 0, 3, 0.5)
	s1 := p.series(1)
	if !reflect.DeepEqual(s1, []float64{0.1, 0.1, 0.1, 0.5}) {
		t.Errorf("gap-filled series %v", s1)
	}
}
