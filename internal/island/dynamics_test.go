package island

import (
	"context"
	"reflect"
	"testing"

	"adhocga/internal/core"
	"adhocga/internal/dynamics"
	"adhocga/internal/runner"
)

// dynTestConfig is testConfig with the full perturbation layer enabled:
// churn and rewiring at every second barrier plus a small Byzantine
// cohort (T=6 with 2 CSN leaves 3 normal seats after the free-rider).
func dynTestConfig(totalPop, gens int, seed uint64) core.Config {
	cfg := testConfig(totalPop, gens, seed)
	cfg.Dynamics = &dynamics.Config{
		Interval:   2,
		ChurnRate:  0.2,
		RewireProb: 0.6,
		RewireStep: 0.3,
		FreeRiders: 1,
	}
	return cfg
}

// TestOneIslandDynamicsBitIdenticalToSerial extends the degenerate-case
// contract to the perturbation layer: a 1-island engine with dynamics
// enabled must replay the serial engine with the same dynamics exactly —
// the perturbation stream derives from the root seed identically in both.
func TestOneIslandDynamicsBitIdenticalToSerial(t *testing.T) {
	cfg := dynTestConfig(24, 6, 42)

	serialEng, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := serialEng.Run(context.Background(), discard)
	if err != nil {
		t.Fatal(err)
	}
	if serialEng.Dynamics() == nil || serialEng.Dynamics().Replaced == 0 {
		t.Fatal("dynamics never churned; test is vacuous")
	}

	isl, err := New(Config{Core: cfg, Count: 1, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := isl.Run(context.Background(), runner.NewPool(0), discard)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got.Aggregate.CoopSeries, serial.CoopSeries) {
		t.Errorf("CoopSeries diverged:\n island %v\n serial %v", got.Aggregate.CoopSeries, serial.CoopSeries)
	}
	if got.Aggregate.FinalFitness != serial.FinalFitness {
		t.Errorf("FinalFitness = %+v, want %+v", got.Aggregate.FinalFitness, serial.FinalFitness)
	}
	for i := range serial.FinalStrategies {
		if got.Aggregate.FinalStrategies[i].Key() != serial.FinalStrategies[i].Key() {
			t.Errorf("FinalStrategies[%d] = %s, want %s", i,
				got.Aggregate.FinalStrategies[i].Key(), serial.FinalStrategies[i].Key())
		}
	}
	if got.Aggregate.FinalCollector.FromByz != serial.FinalCollector.FromByz {
		t.Errorf("FromByz diverged: %+v vs %+v",
			got.Aggregate.FinalCollector.FromByz, serial.FinalCollector.FromByz)
	}
}

// TestIslandDynamicsDeterministicAcrossParallelism pins that a 4-island
// run with churn, rewiring, adversaries AND migration stays bit-identical
// at any worker count: per-island perturbation streams derive from the
// per-island seeds, never from scheduling.
func TestIslandDynamicsDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) runFingerprint {
		eng, err := New(Config{
			Core:        dynTestConfig(24, 6, 99),
			Count:       4,
			Interval:    2,
			Migrants:    1,
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), runner.NewPool(0), discard)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(res)
	}
	want := run(1)
	if want.Moved == 0 {
		t.Fatal("no migration happened; test is vacuous")
	}
	for _, par := range []int{2, 8} {
		if got := run(par); !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d diverged from serial", par)
		}
	}
}
