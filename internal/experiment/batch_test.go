package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"adhocga/internal/event"
	"adhocga/internal/runner"
	"adhocga/internal/scenario"
)

// discard is the emit function of runs whose events a test ignores.
func discard(event.Event) {}

// runScenarios runs a batch on a fresh pool sized like the batch's
// parallelism (0: min(GOMAXPROCS, NumCPU)) and discards its events.
func runScenarios(runs []ScenarioRun, sc Scale, opts Options) ([]*CaseResult, error) {
	return RunScenarios(context.Background(), runner.NewPool(opts.Parallelism), runs, sc, opts, discard)
}

// replicateCounter returns an emit function that checks every replicate
// event's total against want, plus a reader of the number of replicate
// events seen and the last Done value.
func replicateCounter(t *testing.T, want int) (func(event.Event), func() (calls, last int)) {
	var mu sync.Mutex
	var calls, last int
	emit := func(ev event.Event) {
		if ev.Kind != event.KindReplicate {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		calls++
		last = ev.Replicate.Done
		if ev.Replicate.Total != want {
			t.Errorf("total = %d, want %d", ev.Replicate.Total, want)
		}
	}
	return emit, func() (int, int) { mu.Lock(); defer mu.Unlock(); return calls, last }
}

func tinyScale() Scale {
	return Scale{Name: "tiny", Generations: 2, Rounds: 15, Repetitions: 2}
}

// caseResultFingerprint reduces a CaseResult to comparable plain data (the
// census and collector hold maps/pointers, so compare their JSON form).
func caseResultFingerprint(t *testing.T, res *CaseResult) string {
	t.Helper()
	type fp struct {
		CoopMean, CoopStd, MeanEnvCoopMean []float64
		Final, FinalEnv                    any
		PerEnv                             []EnvSummary
		FromNormal, FromCSN                any
		Top                                any
	}
	b, err := json.Marshal(fp{
		CoopMean: res.CoopMean, CoopStd: res.CoopStd, MeanEnvCoopMean: res.MeanEnvCoopMean,
		Final: res.FinalCoop, FinalEnv: res.FinalMeanEnvCoop,
		PerEnv:     res.PerEnv,
		FromNormal: res.FromNormal, FromCSN: res.FromCSN,
		Top: res.Census.Top(1 << 30),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRunScenariosMatchesRunCase(t *testing.T) {
	// A batched Table 4 scenario must equal the same case run alone,
	// bit-for-bit: batching is pure scheduling.
	specs := scenario.Table4()
	runs := []ScenarioRun{
		{Spec: specs[0], Seed: 11},
		{Spec: specs[2], Seed: 13},
	}
	batched, err := runScenarios(runs, tinyScale(), Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, caseID := range []int{1, 3} {
		alone, err := runCase(caseID, tinyScale(), Options{Seed: runs[i].Seed, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := caseResultFingerprint(t, batched[i]), caseResultFingerprint(t, alone); got != want {
			t.Errorf("case %d: batched result differs from the standalone run", caseID)
		}
		if batched[i].Case.ID != caseID || batched[i].Case.Name != scenario.Table4()[caseID-1].Name {
			t.Errorf("case identity lost: %+v", batched[i].Case)
		}
	}
}

func TestRunScenariosDeterministicAcrossParallelism(t *testing.T) {
	runs := []ScenarioRun{
		{Spec: scenario.Spec{Name: "a", Environments: []scenario.EnvSpec{{CSN: 0}}}, Seed: 3},
		{Spec: scenario.Spec{Name: "b", Environments: []scenario.EnvSpec{{CSN: 10}}, PathMode: "LP"}, Seed: 4},
		{Spec: scenario.Spec{Name: "c", Environments: []scenario.EnvSpec{{CSN: 30}}, Repetitions: 3}, Seed: 5},
	}
	seq, err := runScenarios(runs, tinyScale(), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := runScenarios(runs, tinyScale(), Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if caseResultFingerprint(t, seq[i]) != caseResultFingerprint(t, par[i]) {
			t.Errorf("scenario %q: parallelism changed the result", runs[i].Spec.Name)
		}
	}
	if seq[2].FinalCoop.N != 3 {
		t.Errorf("spec-pinned repetitions ignored: N = %d", seq[2].FinalCoop.N)
	}
}

func TestRunScenariosSpecOverridesReachEngine(t *testing.T) {
	spec := scenario.Spec{
		Name:           "small world",
		Environments:   []scenario.EnvSpec{{CSN: 4}},
		Population:     30,
		TournamentSize: 20,
		Generations:    2,
		Rounds:         10,
		Repetitions:    2,
	}
	res, err := runScenarios([]ScenarioRun{{Spec: spec, Seed: 9}}, tinyScale(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := censusTotal(res[0].Census); got != 2*30 {
		t.Errorf("census total %d, want 60 (population override lost)", got)
	}
	if len(res[0].CoopMean) != 2 {
		t.Errorf("%d generations", len(res[0].CoopMean))
	}
	if res[0].Case.Name != "small world" || res[0].PerEnv[0].Name != "CSN4" {
		t.Errorf("presentation fields wrong: %+v", res[0].Case)
	}
}

func TestRunScenariosPinnedSeedWins(t *testing.T) {
	spec := scenario.Spec{Name: "pinned", Environments: []scenario.EnvSpec{{CSN: 0}}, Seed: 77}
	a, err := runScenarios([]ScenarioRun{{Spec: spec, Seed: 1}}, tinyScale(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runScenarios([]ScenarioRun{{Spec: spec, Seed: 2}}, tinyScale(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if caseResultFingerprint(t, a[0]) != caseResultFingerprint(t, b[0]) {
		t.Error("pinned scenario seed did not override the fallback seed")
	}
}

func TestRunScenariosOptionsSeedIsBatchFallback(t *testing.T) {
	spec := func(name string) scenario.Spec {
		return scenario.Spec{Name: name, Environments: []scenario.EnvSpec{{CSN: 0}}}
	}
	runs := []ScenarioRun{{Spec: spec("a")}, {Spec: spec("b")}}
	first, err := runScenarios(runs, tinyScale(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Unpinned scenarios in one batch must not share replicate streams.
	if caseResultFingerprint(t, first[0]) == caseResultFingerprint(t, first[1]) {
		t.Error("two unpinned scenarios produced identical results")
	}
	// The batch seed must matter...
	other, err := runScenarios(runs, tinyScale(), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if caseResultFingerprint(t, first[0]) == caseResultFingerprint(t, other[0]) {
		t.Error("changing Options.Seed did not change unpinned scenario results")
	}
	// ...and be reproducible.
	again, err := runScenarios(runs, tinyScale(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if caseResultFingerprint(t, first[i]) != caseResultFingerprint(t, again[i]) {
			t.Errorf("scenario %d not reproducible for a fixed batch seed", i)
		}
	}
	// Pinning one run's seed must not shift its neighbor's stream.
	pinned := []ScenarioRun{{Spec: spec("a"), Seed: 999}, {Spec: spec("b")}}
	mixed, err := runScenarios(pinned, tinyScale(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if caseResultFingerprint(t, mixed[1]) != caseResultFingerprint(t, first[1]) {
		t.Error("pinning scenario 0's seed changed scenario 1's results")
	}
}

func TestRunScenariosRejectsBadSpecs(t *testing.T) {
	bad := []ScenarioRun{{Spec: scenario.Spec{Name: "no envs"}}}
	if _, err := runScenarios(bad, tinyScale(), Options{}); err == nil {
		t.Error("invalid spec accepted")
	}
	impossible := []ScenarioRun{{Spec: scenario.Spec{
		Name:         "csn over tournament size",
		Environments: []scenario.EnvSpec{{CSN: 60}},
	}}}
	if _, err := runScenarios(impossible, tinyScale(), Options{}); err == nil {
		t.Error("impossible spec accepted")
	}
}

func TestRunScenariosRejectsNegativeParallelism(t *testing.T) {
	runs := []ScenarioRun{{Spec: scenario.Spec{Name: "a", Environments: []scenario.EnvSpec{{CSN: 0}}}, Seed: 1}}
	if _, err := runScenarios(runs, tinyScale(), Options{Parallelism: -1}); err == nil || !strings.Contains(err.Error(), "parallelism") {
		t.Errorf("negative parallelism: err %v, want one naming parallelism", err)
	}
}

func TestRunScenariosProgressSpansBatch(t *testing.T) {
	runs := []ScenarioRun{
		{Spec: scenario.Spec{Name: "a", Environments: []scenario.EnvSpec{{CSN: 0}}}, Seed: 1},
		{Spec: scenario.Spec{Name: "b", Environments: []scenario.EnvSpec{{CSN: 0}}, Repetitions: 3}, Seed: 2},
	}
	emit, seen := replicateCounter(t, 5) // 2 + 3 replicates flattened into one queue
	_, err := RunScenarios(context.Background(), runner.NewPool(1), runs, tinyScale(), Options{Parallelism: 1}, emit)
	if err != nil {
		t.Fatal(err)
	}
	if calls, last := seen(); calls != 5 || last != 5 {
		t.Errorf("calls=%d last=%d", calls, last)
	}
}

func TestRunScenariosEmptyBatch(t *testing.T) {
	out, err := runScenarios(nil, tinyScale(), Options{})
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch: %v, %v", out, err)
	}
}

func TestDeepEqualAcrossParallelismFullStructure(t *testing.T) {
	// Beyond the fingerprint: the raw series slices must be deeply equal.
	sc := tinyScale()
	a, err := runCase(2, sc, Options{Seed: 21, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCase(2, sc, Options{Seed: 21, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.CoopMean, b.CoopMean) || !reflect.DeepEqual(a.CoopStd, b.CoopStd) ||
		!reflect.DeepEqual(a.MeanEnvCoopMean, b.MeanEnvCoopMean) || !reflect.DeepEqual(a.PerEnv, b.PerEnv) {
		t.Error("parallelism changed aggregate series")
	}
}

// Events and the shared pool are observation and scheduling only: a batch
// observed through emit on a shared pool equals the bare batch bit for
// bit, and every event kind arrives stamped with its scenario for both
// the serial and the island engine.
func TestRunScenariosHooksAndPoolLeaveResultsUnchanged(t *testing.T) {
	churn := &scenario.DynamicsSpec{ChurnRate: 0.2, Interval: 1}
	serial := scenario.Spec{Name: "serial churn", Environments: []scenario.EnvSpec{{CSN: 2}},
		Checkpoints: 1, Dynamics: churn}
	islands := islandRun(2).Spec
	islands.Checkpoints = 1
	islands.Dynamics = churn
	runs := []ScenarioRun{{Spec: serial}, {Spec: islands}}

	bare, err := runScenarios(runs, tinyScale(), Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := map[event.Kind][2]int{} // kind → events per scenario
	emit := func(ev event.Event) {
		var scen int
		switch {
		case ev.Generation != nil:
			scen = ev.Generation.Scenario
		case ev.Islands != nil:
			scen = ev.Islands.Scenario
		case ev.Churn != nil:
			scen = ev.Churn.Scenario
		case ev.Checkpoint != nil:
			scen = ev.Checkpoint.Scenario
		default:
			return
		}
		mu.Lock()
		c := calls[ev.Kind]
		c[scen]++
		calls[ev.Kind] = c
		mu.Unlock()
	}
	hooked, err := RunScenarios(context.Background(), runner.NewPool(2), runs, tinyScale(), Options{Seed: 4}, emit)
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if got, want := caseResultFingerprint(t, hooked[i]), caseResultFingerprint(t, bare[i]); got != want {
			t.Errorf("scenario %d: hooks or pool changed the result", i)
		}
	}
	// tinyScale: 2 generations × 2 replicates per scenario, so one churn
	// barrier per replicate, reported once however many islands it has.
	want := map[event.Kind][2]int{
		event.KindGeneration: {4, 0},
		event.KindIslands:    {0, 4},
		event.KindChurn:      {2, 2},
		event.KindCheckpoint: {4, 4},
	}
	if !reflect.DeepEqual(calls, want) {
		t.Errorf("events per scenario = %v, want %v", calls, want)
	}

	if hooked[0].Recovery == nil {
		t.Fatal("churning scenario has no recovery summary")
	}
	if out := RecoveryTable(hooked[0]).Render(); !strings.Contains(out, "recovery after churn — serial churn") {
		t.Errorf("recovery table:\n%s", out)
	}
	if RecoveryTable(&CaseResult{}) != nil {
		t.Error("RecoveryTable of a static result is not nil")
	}
}

func TestRunScenariosContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := RunScenarios(ctx, runner.NewPool(0), csnRuns(0), tinyScale(), Options{}, discard)
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled batch = %v, %v; want nil, context.Canceled", out, err)
	}
}
