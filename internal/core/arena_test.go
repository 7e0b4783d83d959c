package core

import (
	"context"
	"testing"

	"adhocga/internal/dynamics"
	"adhocga/internal/ga"
	"adhocga/internal/metrics"
	"adhocga/internal/tournament"
)

// TestDynamicsRunReplays pins determinism with the perturbation model
// enabled: two engines built by New from the same dynamics config —
// churn barriers, SP↔LP rewiring and a free-rider cohort — replay each
// other bit for bit, down to the final strategies.
func TestDynamicsRunReplays(t *testing.T) {
	envs := []tournament.Environment{{Name: "A", CSN: 2}}
	cfg := smallConfig(7, envs, 6)
	cfg.Dynamics = &dynamics.Config{
		Interval:   2,
		ChurnRate:  0.2,
		RewireProb: 0.6,
		RewireStep: 0.3,
		FreeRiders: 1,
	}
	run := func() *Result {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background(), discard)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, got := run(), run()

	if len(got.CoopSeries) != cfg.Generations {
		t.Fatalf("series length %d, want %d", len(got.CoopSeries), cfg.Generations)
	}
	for g := range want.CoopSeries {
		if got.CoopSeries[g] != want.CoopSeries[g] {
			t.Fatalf("dynamics run diverged at generation %d: %v vs %v", g, got.CoopSeries[g], want.CoopSeries[g])
		}
	}
	for i := range want.FinalStrategies {
		if got.FinalStrategies[i].Genome().Compact() != want.FinalStrategies[i].Genome().Compact() {
			t.Fatalf("final strategy %d differs between replays", i)
		}
	}
}

// TestWarmGenerationZeroAllocs measures a full warm generation —
// evaluation, fitness stats, series recording, reproduction — on an
// engine whose arenas have been through one generation already. With no
// hooks installed and pre-sized series, the steady-state loop must not
// allocate.
func TestWarmGenerationZeroAllocs(t *testing.T) {
	envs := []tournament.Environment{{Name: "A", CSN: 0}, {Name: "B", CSN: 2}}
	cfg := smallConfig(3, envs, 4)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	collector := metrics.NewCollector()
	res := NewResult(256, len(envs))
	generation := func() {
		if err := e.EvaluateGeneration(collector); err != nil {
			t.Fatal(err)
		}
		ga.Stats(e.genomes)
		res.Record(collector)
		if err := e.Reproduce(); err != nil {
			t.Fatal(err)
		}
	}
	// Two warm-up generations so both reproduction arena buffers and the
	// collector's per-environment storage are grown.
	generation()
	generation()

	allocs := testing.AllocsPerRun(50, func() {
		res.CoopSeries = res.CoopSeries[:0]
		res.MeanEnvCoopSeries = res.MeanEnvCoopSeries[:0]
		for i := range res.CoopPerEnvSeries {
			res.CoopPerEnvSeries[i] = res.CoopPerEnvSeries[i][:0]
		}
		generation()
	})
	if allocs != 0 {
		t.Errorf("warm generation allocates %.1f times per run, want 0", allocs)
	}
}
