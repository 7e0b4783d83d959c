package adhocga

import (
	"context"
	"strings"
	"testing"

	"adhocga/internal/core"
	"adhocga/internal/island"
	"adhocga/internal/runner"
)

// TestCallerHooksFailTheJob pins that a job is observed only through its
// events: a spec of any kind that arrives with a caller hook, or with its
// own pool, ends failed with an error naming the field, and the hook
// never runs.
func TestCallerHooksFailTheJob(t *testing.T) {
	s := NewSession(WithPoolSize(1))
	defer s.Close()
	ran := false
	mark := func() { ran = true }
	// Small workloads, so a build that runs the hooks instead fails fast.
	small := DefaultEvolutionConfig(PaperEnvironments()[:1], ShorterPaths(), 1)
	small.PopulationSize = 20
	small.Eval.TournamentSize = 10
	small.Eval.Tournament.Rounds = 10
	small.Generations = 2
	evolve := func(set func(*EvolutionConfig)) EvolveSpec {
		cfg := small
		set(&cfg)
		return EvolveSpec{Config: cfg}
	}
	islands := func(set func(*IslandConfig)) IslandsSpec {
		cfg := IslandConfig{Core: small, Count: 2}
		set(&cfg)
		return IslandsSpec{Config: cfg}
	}
	fam, err := ScenarioFamilyByName("table4")
	if err != nil {
		t.Fatal(err)
	}
	scenarios := func(opts RunOptions) ScenariosSpec {
		return ScenariosSpec{
			Runs:     []ScenarioRun{{Spec: fam.Specs()[0]}},
			Defaults: Scale{Name: "test", Generations: 2, Rounds: 10, Repetitions: 1},
			Opts:     opts,
		}
	}
	ipdrpCfg := DefaultIPDRPConfig(1)
	ipdrpCfg.Generations = 2
	ipdrpCfg.OnGeneration = func(int, float64, PopulationStats) { mark() }

	cases := []struct {
		field string
		spec  JobSpec
	}{
		{"EvolutionConfig.OnGeneration", evolve(func(c *EvolutionConfig) { c.OnGeneration = func(GenerationStats) { mark() } })},
		{"EvolutionConfig.OnChurn", evolve(func(c *EvolutionConfig) { c.OnChurn = func(int) { mark() } })},
		{"EvolutionConfig.OnCheckpoint", evolve(func(c *EvolutionConfig) { c.OnCheckpoint = func(core.Checkpoint) { mark() } })},
		{"IslandConfig.OnGeneration", islands(func(c *IslandConfig) { c.OnGeneration = func(IslandGenerationStats) { mark() } })},
		{"IslandConfig.OnCheckpoint", islands(func(c *IslandConfig) { c.OnCheckpoint = func(core.Checkpoint) { mark() } })},
		{"IslandConfig.Core.OnChurn", islands(func(c *IslandConfig) { c.Core.OnChurn = func(int) { mark() } })},
		{"IslandConfig.Core.OnGeneration", islands(func(c *IslandConfig) { c.Core.OnGeneration = func(GenerationStats) { mark() } })},
		{"RunOptions.Pool", scenarios(RunOptions{Pool: runner.NewPool(1)})},
		{"RunOptions.OnReplicate", scenarios(RunOptions{OnReplicate: func(int, int) { mark() }})},
		{"RunOptions.OnGeneration", scenarios(RunOptions{OnGeneration: func(int, int, GenerationStats) { mark() }})},
		{"RunOptions.OnIslandGeneration", scenarios(RunOptions{OnIslandGeneration: func(int, int, island.GenerationStats) { mark() }})},
		{"RunOptions.OnChurn", scenarios(RunOptions{OnChurn: func(int, int, int) { mark() }})},
		{"RunOptions.OnCheckpoint", scenarios(RunOptions{OnCheckpoint: func(int, int, uint64, core.Checkpoint) { mark() }})},
		{"IPDRPConfig.OnGeneration", IPDRPSpec{Config: ipdrpCfg}},
	}
	for _, c := range cases {
		j, err := s.Submit(context.Background(), c.spec)
		if err != nil {
			t.Fatal(err)
		}
		err = j.Wait(context.Background())
		if j.State() != JobFailed || err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s %s: state %s, err %v; want failed naming %s", c.spec.Kind(), c.field, j.State(), err, c.field)
			continue
		}
		if !strings.Contains(err.Error(), "Job.Events") {
			t.Errorf("%s: error %q does not point at Job.Events", c.field, err)
		}
	}
	if ran {
		t.Error("a caller hook ran")
	}
}
