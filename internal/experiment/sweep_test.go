package experiment

import (
	"fmt"
	"strings"
	"testing"

	"adhocga/internal/scenario"
)

// csnRuns is the paper's CSN sweep (Table 1 samples it at 0, 10, 25 and
// 30) as a scenario batch: one single-environment, shorter-path spec per
// selfish-node count, seeds derived from the batch's Options.Seed.
func csnRuns(counts ...int) []ScenarioRun {
	runs := make([]ScenarioRun, len(counts))
	for i, csn := range counts {
		runs[i] = ScenarioRun{Spec: scenario.Spec{
			Name:         fmt.Sprintf("sweep CSN=%d", csn),
			Environments: []scenario.EnvSpec{{CSN: csn}},
		}}
	}
	return runs
}

func TestCSNSweepShape(t *testing.T) {
	sc := Scale{Name: "tiny", Generations: 2, Rounds: 10, Repetitions: 2}
	points, err := runScenarios(csnRuns(0, 10, 30), sc, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	for i, want := range []int{0, 10, 30} {
		if env := points[i].Case.Environments; len(env) != 1 || env[0].CSN != want {
			t.Errorf("point %d environments = %+v, want one with CSN %d", i, env, want)
		}
		if points[i].FinalCoop.N != 2 {
			t.Errorf("point %d has %d reps", i, points[i].FinalCoop.N)
		}
		if points[i].FinalCoop.Mean < 0 || points[i].FinalCoop.Mean > 1 {
			t.Errorf("point %d cooperation %v", i, points[i].FinalCoop.Mean)
		}
	}
}

// A CSN count the tournament cannot seat is rejected up front, before any
// replicate runs, by the same resolution every scenario goes through.
func TestCSNSweepValidatesRange(t *testing.T) {
	sc := Scale{Name: "tiny", Generations: 1, Rounds: 5, Repetitions: 1}
	if _, err := runScenarios(csnRuns(0, 50), sc, Options{}); err == nil || !strings.Contains(err.Error(), "50 CSN") {
		t.Errorf("CSN=50 of 50: err = %v", err)
	}
	if _, err := runScenarios(csnRuns(-1), sc, Options{}); err == nil || !strings.Contains(err.Error(), "negative CSN") {
		t.Errorf("negative CSN: err = %v", err)
	}
}

// The headline shape at meaningful scale: cooperation decreases
// monotonically in the selfish fraction (the paper's case 1 → case 2
// contrast, densified).
func TestCSNSweepMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := Scale{Name: "sweep", Generations: 20, Rounds: 300, Repetitions: 1}
	points, err := runScenarios(csnRuns(0, 15, 30), sc, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].FinalCoop.Mean >= points[i-1].FinalCoop.Mean {
			t.Errorf("cooperation not decreasing: %s → %.3f, %s → %.3f",
				points[i-1].Case.Name, points[i-1].FinalCoop.Mean,
				points[i].Case.Name, points[i].FinalCoop.Mean)
		}
	}
}
