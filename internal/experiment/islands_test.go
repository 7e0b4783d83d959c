package experiment

import (
	"strings"
	"testing"

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
	if len(res[0].CoopMean) != 2 || res[0].Census.Total() != 80 {
		t.Errorf("aggregate: %d coop points, census %d", len(res[0].CoopMean), res[0].Census.Total())
	}

	table := IslandTable(res[0])
	if table == nil {
		t.Fatal("IslandTable returned nil for an island result")
	}
	if out := table.Render(); !strings.Contains(out, "4×ring/worst") {
		t.Errorf("island table header missing parameters:\n%s", out)
	}
}

func TestRunScenariosIslandsDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) string {
		res, err := runScenarios([]ScenarioRun{islandRun(4)}, tinyScale(), Options{Seed: 11, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return caseResultFingerprint(t, res[0])
	}
	want := run(1)
	for _, par := range []int{2, 8} {
		if got := run(par); got != want {
			t.Errorf("parallelism %d diverged from serial", par)
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
