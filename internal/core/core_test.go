package core

import (
	"context"
	"reflect"
	"testing"

	"adhocga/internal/event"
	"adhocga/internal/ga"
	"adhocga/internal/game"
	"adhocga/internal/metrics"
	"adhocga/internal/network"
	"adhocga/internal/tournament"
)

// discard is the emit function of runs whose events a test ignores.
func discard(event.Event) {}

// smallConfig returns a fast configuration: 20 players, tournament size
// 10, few rounds and generations.
func smallConfig(seed uint64, envs []tournament.Environment, generations int) Config {
	return Config{
		PopulationSize: 20,
		Generations:    generations,
		Seed:           seed,
		Eval: tournament.EvalConfig{
			TournamentSize: 10,
			PlaysPerEnv:    1,
			Environments:   envs,
			Tournament: tournament.Config{
				Rounds: 10,
				Mode:   network.ShorterPaths(),
				Game:   game.DefaultConfig(),
			},
		},
		GA: ga.PaperConfig(),
	}
}

func TestPaperConfigValid(t *testing.T) {
	cfg := PaperConfig(tournament.PaperEnvironments(), network.ShorterPaths(), 1)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	if cfg.PopulationSize != 100 || cfg.Generations != 500 ||
		cfg.Eval.TournamentSize != 50 || cfg.Eval.Tournament.Rounds != 300 {
		t.Errorf("paper parameters wrong: %+v", cfg)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.PopulationSize = 1 },
		func(c *Config) { c.Generations = 0 },
		func(c *Config) { c.Eval.Environments = nil },
		func(c *Config) { c.GA.Selector = nil },
	}
	for i, mutate := range cases {
		cfg := smallConfig(1, []tournament.Environment{{Name: "A", CSN: 0}}, 3)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunProducesFullHistory(t *testing.T) {
	envs := []tournament.Environment{{Name: "A", CSN: 0}, {Name: "B", CSN: 4}}
	const generations = 5
	e, err := New(smallConfig(2, envs, generations))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CoopSeries) != generations {
		t.Errorf("coop series length %d, want %d", len(res.CoopSeries), generations)
	}
	if len(res.MeanEnvCoopSeries) != generations {
		t.Errorf("mean env series length %d", len(res.MeanEnvCoopSeries))
	}
	if len(res.CoopPerEnvSeries) != len(envs) {
		t.Fatalf("%d per-env series, want %d", len(res.CoopPerEnvSeries), len(envs))
	}
	for ei, s := range res.CoopPerEnvSeries {
		if len(s) != generations {
			t.Errorf("env %d series length %d", ei, len(s))
		}
		for g, v := range s {
			if v < 0 || v > 1 {
				t.Errorf("env %d gen %d cooperation %v outside [0,1]", ei, g, v)
			}
		}
	}
	if len(res.FinalStrategies) != 20 {
		t.Errorf("%d final strategies", len(res.FinalStrategies))
	}
	if res.FinalCollector == nil {
		t.Error("final collector missing")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	envs := []tournament.Environment{{Name: "A", CSN: 2}}
	run := func() *Result {
		e, err := New(smallConfig(42, envs, 4))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background(), discard)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.CoopSeries {
		if a.CoopSeries[i] != b.CoopSeries[i] {
			t.Fatalf("coop series diverged at generation %d: %v vs %v", i, a.CoopSeries[i], b.CoopSeries[i])
		}
	}
	for i := range a.FinalStrategies {
		if a.FinalStrategies[i] != b.FinalStrategies[i] {
			t.Fatalf("final strategies diverged at %d", i)
		}
	}
}

func TestRunDifferentSeedsDiffer(t *testing.T) {
	envs := []tournament.Environment{{Name: "A", CSN: 2}}
	ra, err := New(smallConfig(1, envs, 3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := ra.Run(context.Background(), discard)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := New(smallConfig(2, envs, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := rb.Run(context.Background(), discard)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.FinalStrategies {
		if a.FinalStrategies[i] != b.FinalStrategies[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical final populations")
	}
}

// TestOnGenerationHook pins Run's emit path: one generation event per
// generation, in order, carrying the cooperation level the result
// records.
func TestOnGenerationHook(t *testing.T) {
	envs := []tournament.Environment{{Name: "A", CSN: 0}}
	var gens []int
	var coops []float64
	e, err := New(smallConfig(3, envs, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), func(ev event.Event) {
		if ev.Kind != event.KindGeneration {
			t.Errorf("unexpected %s event from a static run without checkpoints", ev.Kind)
			return
		}
		gens = append(gens, ev.Generation.Gen)
		coops = append(coops, ev.Generation.Coop)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 4 {
		t.Fatalf("emit called %d times", len(gens))
	}
	for i, g := range gens {
		if g != i {
			t.Errorf("event generation %d at position %d", g, i)
		}
	}
	if !reflect.DeepEqual(coops, res.CoopSeries) {
		t.Errorf("event cooperation %v, result series %v", coops, res.CoopSeries)
	}
}

func TestEvolutionIncreasesCooperationWithoutCSN(t *testing.T) {
	// The paper's core qualitative claim (case 1): in a CSN-free
	// environment cooperation evolves to high levels because forwarding is
	// the only way to send own packets. A small/short run won't hit 97%,
	// but late generations must clearly beat the random start.
	if testing.Short() {
		t.Skip("short mode")
	}
	// Reputation needs enough rounds per tournament to form; the paper
	// uses R=300. R=150 with a population of 60 is the smallest scale at
	// which the case-1 dynamics are reliably visible.
	envs := []tournament.Environment{{Name: "TE1", CSN: 0}}
	cfg := Config{
		PopulationSize: 60,
		Generations:    25,
		Seed:           7,
		Eval: tournament.EvalConfig{
			TournamentSize: 30,
			PlaysPerEnv:    1,
			Environments:   envs,
			Tournament: tournament.Config{
				Rounds: 150,
				Mode:   network.ShorterPaths(),
				Game:   game.DefaultConfig(),
			},
		},
		GA: ga.PaperConfig(),
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), discard)
	if err != nil {
		t.Fatal(err)
	}
	early := res.CoopSeries[0]
	lateSum := 0.0
	for _, v := range res.CoopSeries[len(res.CoopSeries)-5:] {
		lateSum += v
	}
	late := lateSum / 5
	if late <= early {
		t.Errorf("cooperation did not increase: first %v, late mean %v", early, late)
	}
	if late < 0.5 {
		t.Errorf("late cooperation %v below 0.5; evolution not working", late)
	}
}

func TestStrategiesAccessor(t *testing.T) {
	envs := []tournament.Environment{{Name: "A", CSN: 0}}
	e, err := New(smallConfig(5, envs, 2))
	if err != nil {
		t.Fatal(err)
	}
	ss := e.SnapshotStrategies()
	if len(ss) != 20 {
		t.Fatalf("%d strategies", len(ss))
	}
	// A snapshot does not change as the engine evolves: reproduce and
	// evaluate the next generation, then compare against the keys taken
	// before.
	keys := make([]string, len(ss))
	for i, s := range ss {
		keys[i] = s.Key()
	}
	if err := e.EvaluateGeneration(metrics.NewCollector()); err != nil {
		t.Fatal(err)
	}
	if err := e.Reproduce(); err != nil {
		t.Fatal(err)
	}
	if err := e.EvaluateGeneration(metrics.NewCollector()); err != nil {
		t.Fatal(err)
	}
	changed := false
	for i, s := range e.SnapshotStrategies() {
		changed = changed || s.Key() != keys[i]
		if ss[i].Key() != keys[i] {
			t.Fatalf("snapshot entry %d changed across Reproduce: %s, was %s", i, ss[i].Key(), keys[i])
		}
	}
	if !changed {
		t.Error("the population did not change across Reproduce; the check above proved nothing")
	}
}

func BenchmarkGeneration(b *testing.B) {
	envs := tournament.PaperEnvironments()
	cfg := PaperConfig(envs, network.ShorterPaths(), 1)
	cfg.Generations = 1
	cfg.Eval.Tournament.Rounds = 10
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), discard); err != nil {
			b.Fatal(err)
		}
	}
}
