package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"adhocga/internal/event"
	"adhocga/internal/runner"
	"adhocga/internal/scenario"
)

// islandRun returns a small island scenario: population 40 over 4 islands
// of 10, with a tournament small enough for each island's share.
func islandRun(count int) ScenarioRun {
	return ScenarioRun{Spec: scenario.Spec{
		Name:           "exp islands",
		Environments:   []scenario.EnvSpec{{CSN: 2}},
		Population:     40,
		TournamentSize: 8,
		Islands:        &scenario.IslandSpec{Count: count, Topology: "ring", Interval: 1, Migrants: 1},
	}}
}

func TestRunScenariosIslandSummary(t *testing.T) {
	res, err := runScenarios([]ScenarioRun{islandRun(4)}, tinyScale(), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sum := res[0].Islands
	if sum == nil {
		t.Fatal("island scenario produced no IslandSummary")
	}
	if sum.Count != 4 || len(sum.FinalBest) != 4 || len(sum.FinalDiversity) != 4 {
		t.Errorf("summary = %+v", sum)
	}
	// interval 1 over 2 generations → 1 barrier × 4 edges × 1 migrant × 2 reps.
	if sum.MigrationEvents != 2 || sum.MigrantsMoved != 8 {
		t.Errorf("migration totals = %d events, %d moved; want 2, 8", sum.MigrationEvents, sum.MigrantsMoved)
	}
	if sum.ChampionFitness.N != 2 {
		t.Errorf("champion summary over %d reps, want 2", sum.ChampionFitness.N)
	}
	// The serial-shaped aggregate must be fully populated too.
	if len(res[0].CoopMean) != 2 || censusTotal(res[0].Census) != 80 {
		t.Errorf("aggregate: %d coop points, census %d", len(res[0].CoopMean), censusTotal(res[0].Census))
	}

	table := IslandTable(res[0])
	if table == nil {
		t.Fatal("IslandTable returned nil for an island result")
	}
	if out := table.Render(); !strings.Contains(out, "4×ring/worst") {
		t.Errorf("island table header missing parameters:\n%s", out)
	}
}

// TestRunScenariosIslandsDeterministicAcrossParallelism: an island
// scenario gives byte-identical results, island summaries and events on
// pools of 1, 2 and 4 slots, with and without a worker cap. Replicates
// interleave their events differently on each pool, so events compare
// per stream: each replicate's in emission order, and the replicate
// counts as a set.
func TestRunScenariosIslandsDeterministicAcrossParallelism(t *testing.T) {
	type outcome struct {
		result, islands string
		streams         map[string][]string
	}
	run := func(pool, par int) outcome {
		var mu sync.Mutex
		streams := map[string][]string{}
		emit := func(ev event.Event) {
			b, err := json.Marshal(ev)
			if err != nil {
				t.Error(err)
			}
			key := "replicate"
			if ev.Islands != nil {
				key = fmt.Sprintf("rep %d", ev.Islands.Rep)
			}
			mu.Lock()
			streams[key] = append(streams[key], string(b))
			mu.Unlock()
		}
		res, err := RunScenarios(context.Background(), runner.NewPool(pool), []ScenarioRun{islandRun(4)}, tinyScale(),
			Options{Seed: 11, Parallelism: par}, emit)
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(streams["replicate"])
		islands, err := json.Marshal(res[0].Islands)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{caseResultFingerprint(t, res[0]), string(islands), streams}
	}
	want := run(1, 1)
	if len(want.streams) != 3 {
		t.Fatalf("event streams %v, want two replicates and the replicate counts", want.streams)
	}
	for _, tc := range []struct{ pool, par int }{{1, 0}, {2, 0}, {4, 0}, {4, 2}, {4, 8}} {
		if got := run(tc.pool, tc.par); !reflect.DeepEqual(got, want) {
			t.Errorf("pool %d, parallelism %d diverged from the serial run", tc.pool, tc.par)
		}
	}
}

// TestOneIslandScenarioMatchesSerialScenario pins the cross-layer
// degenerate case: the same spec with and without a 1-island block must
// produce bit-identical CaseResults.
func TestOneIslandScenarioMatchesSerialScenario(t *testing.T) {
	serial := islandRun(1)
	serial.Spec.Islands = nil
	want, err := runScenarios([]ScenarioRun{serial}, tinyScale(), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runScenarios([]ScenarioRun{islandRun(1)}, tinyScale(), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := caseResultFingerprint(t, got[0]), caseResultFingerprint(t, want[0]); g != w {
		t.Errorf("1-island scenario diverged from serial:\n got %s\nwant %s", g, w)
	}
	if got[0].Islands == nil || want[0].Islands != nil {
		t.Error("IslandSummary presence should follow the islands block")
	}
}

func TestRunScenariosRejectsBadIslandSpecUpFront(t *testing.T) {
	bad := islandRun(3) // 40 % 3 != 0
	if _, err := runScenarios([]ScenarioRun{bad}, tinyScale(), Options{Seed: 1}); err == nil {
		t.Error("indivisible island sharding was not rejected")
	}
}

func TestSummarizeIslandsSkipsNilAndAppliesDefaults(t *testing.T) {
	spec := &scenario.IslandSpec{Count: 2}
	sum := SummarizeIslands(spec, nil)
	if sum.Interval != 10 || sum.Migrants != 1 {
		t.Errorf("defaults not applied: %+v", sum)
	}
	if sum.Topology != "ring" || sum.Replace != "worst" {
		t.Errorf("names not resolved: %+v", sum)
	}
}
