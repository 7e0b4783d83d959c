package adhocga

import (
	"context"
	"math"
	"testing"
)

// facadeSession is a small session for the facade smoke tests, closed when
// the test ends.
func facadeSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession(WithPoolSize(2))
	t.Cleanup(s.Close)
	return s
}

func TestFacadeStrategyRoundtrip(t *testing.T) {
	s, err := ParseStrategy("010 101 101 111 1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Decide(Trust3, ActivityLow) != Forward {
		t.Error("facade Decide wrong")
	}
	if s.DecideUnknown() != Forward {
		t.Error("facade DecideUnknown wrong")
	}
	if again := NewStrategy(s.Genome()); again != s {
		t.Errorf("NewStrategy(Genome) = %v, want %v", again, s)
	}
}

func TestFacadeEnvironmentsAndCases(t *testing.T) {
	if len(PaperEnvironments()) != 4 {
		t.Error("PaperEnvironments wrong")
	}
	fam, err := ScenarioFamilyByName("table4")
	if err != nil || len(fam.Specs()) != 4 || fam.Specs()[1].ID != 2 {
		t.Errorf("table4 family: %+v, %v", fam, err)
	}
	if ShorterPaths().Name != "SP" {
		t.Error("path mode wrong")
	}
	if ScalePaper.Generations != 500 || ScaleSmoke.Generations <= 0 {
		t.Error("scales wrong")
	}
}

func TestFacadeEvolveSmoke(t *testing.T) {
	cfg := DefaultEvolutionConfig(PaperEnvironments()[:1], ShorterPaths(), 3)
	cfg.PopulationSize = 20
	cfg.Eval.TournamentSize = 10
	cfg.Eval.Tournament.Rounds = 10
	cfg.Generations = 3
	job, err := facadeSession(t).Submit(context.Background(), EvolveSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var gens int
	for e := range job.Events() {
		if e.Kind == KindGeneration {
			gens++
		}
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	res := job.Result().(*EvolutionResult)
	if len(res.CoopSeries) != 3 || gens != len(res.CoopSeries) {
		t.Errorf("series %d, generation events %d", len(res.CoopSeries), gens)
	}
	if len(res.FinalStrategies) != 20 {
		t.Errorf("%d final strategies", len(res.FinalStrategies))
	}
}

func TestFacadeRunMixSmoke(t *testing.T) {
	res, err := facadeSession(t).RunMix(context.Background(), MixConfig{
		Groups: []MixGroup{{Profile: ProfileAllCooperate, Count: 10}},
		CSN:    2,
		Rounds: 10,
		Mode:   ShorterPaths(),
		Game:   DefaultGameConfig(),
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cooperation <= 0 || res.Cooperation > 1 {
		t.Errorf("cooperation %v", res.Cooperation)
	}
	if len(res.Groups) != 1 || res.Groups[0].Name != ProfileAllCooperate.Name {
		t.Errorf("groups %+v", res.Groups)
	}
}

func TestFacadeScenarioSmoke(t *testing.T) {
	spec := ScenarioSpec{Name: "facade", Environments: []ScenarioEnv{{CSN: 3}}, Repetitions: 2}
	sc := Scale{Name: "tiny", Generations: 2, Rounds: 10, Repetitions: 2}
	results, err := facadeSession(t).RunScenarios(context.Background(), []ScenarioRun{{Spec: spec, Seed: 8}}, sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(results[0].CoopMean) != 2 || results[0].FinalCoop.N != 2 {
		t.Errorf("scenario result shape wrong: %+v", results[0])
	}
}

// A Table 4 case is a registry scenario: run it as a one-scenario batch.
func TestFacadeRunCaseSmoke(t *testing.T) {
	fam, err := ScenarioFamilyByName("table4")
	if err != nil {
		t.Fatal(err)
	}
	sc := Scale{Name: "tiny", Generations: 2, Rounds: 10, Repetitions: 2}
	results, err := facadeSession(t).RunScenarios(context.Background(),
		[]ScenarioRun{{Spec: fam.Specs()[0], Seed: 4}}, sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	census := 0
	for _, e := range res.Census.Top(math.MaxInt) {
		census += e.Count
	}
	if res.Case.ID != 1 || len(res.CoopMean) != 2 || census != 200 {
		t.Errorf("result shape wrong: %d gens, census %d", len(res.CoopMean), census)
	}
}
