package adhocga

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite the event stream goldens in testdata")

// goldenSpecs are the job kinds whose event streams are pinned byte for
// byte: every event kind an engine emits (generation, islands, replicate,
// churn, checkpoint) appears in at least one of them.
func goldenSpecs() map[string]JobSpec {
	evolve := smallConfig(6, 11)
	evolve.CheckpointInterval = 2
	evolve.Dynamics = &DynamicsConfig{ChurnRate: 0.3, Interval: 2}

	islandCore := smallConfig(6, 12)
	islandCore.Eval.TournamentSize = 8
	islandCore.CheckpointInterval = 2
	islandCore.Dynamics = &DynamicsConfig{ChurnRate: 0.3, Interval: 2}

	ipdrp := DefaultIPDRPConfig(9)
	ipdrp.Population = 20
	ipdrp.Rounds = 10
	ipdrp.Generations = 4

	return map[string]JobSpec{
		"evolve":  EvolveSpec{Config: evolve},
		"islands": IslandsSpec{Config: IslandConfig{Core: islandCore, Count: 2, Interval: 2, Parallelism: 1}},
		"scenarios": ScenariosSpec{
			Runs: []ScenarioRun{
				{Spec: ScenarioSpec{
					Name:           "serial-churn",
					Environments:   []ScenarioEnv{{CSN: 2}},
					TournamentSize: 8,
					Population:     20,
					Checkpoints:    2,
					Dynamics:       &ScenarioDynamics{ChurnRate: 0.3, Interval: 2},
				}, Seed: 5},
				{Spec: ScenarioSpec{
					Name:           "islands",
					Environments:   []ScenarioEnv{{CSN: 0}},
					TournamentSize: 8,
					Population:     20,
					Checkpoints:    2,
					Islands:        &ScenarioIslands{Count: 2, Interval: 2},
					Dynamics:       &ScenarioDynamics{ChurnRate: 0.3, Interval: 2},
				}, Seed: 6},
			},
			Defaults: Scale{Name: "test", Generations: 4, Rounds: 10, Repetitions: 2},
			Opts:     RunOptions{Parallelism: 1},
		},
		"ipdrp": IPDRPSpec{Config: ipdrp},
	}
}

// TestEventStreamGoldens byte-compares each job kind's NDJSON event
// stream at pool size 1 and parallelism 1 against testdata/events_<kind>.golden.
// Run with -update to rewrite the files.
func TestEventStreamGoldens(t *testing.T) {
	for name, spec := range goldenSpecs() {
		t.Run(name, func(t *testing.T) {
			s := NewSession(WithPoolSize(1))
			defer s.Close()
			j, err := s.Submit(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			for _, e := range drain(t, j) {
				b, err := json.Marshal(e)
				if err != nil {
					t.Fatal(err)
				}
				got.Write(b)
				got.WriteByte('\n')
			}
			if j.State() != JobDone {
				t.Fatalf("job ended %s: %v", j.State(), j.Err())
			}
			path := filepath.Join("testdata", "events_"+name+".golden")
			if *updateGoldens {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to regenerate): %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s event stream deviates from %s:\n--- got\n%s--- want\n%s", name, path, got.Bytes(), want)
			}
		})
	}
}
