package island

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"adhocga/internal/core"
	"adhocga/internal/ga"
	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/runner"
	"adhocga/internal/tournament"
)

// benchConfig sizes one island-scaling workload. The total evaluation work
// per generation is invariant in the island count — every normal plays
// PlaysPerEnv times per environment regardless of sharding — so the
// islands=N timing measures parallel speedup over identical work, not a
// smaller problem. Population 320 divides evenly by 1, 2, 4 and 8, and
// every resulting share is itself a multiple of the T−CSN = 20 tournament
// seats, so no island needs top-up plays and the tournament count is the
// same at every island count.
func benchConfig(seed uint64) core.Config {
	return core.Config{
		PopulationSize: 320,
		Generations:    4,
		Seed:           seed,
		Eval: tournament.EvalConfig{
			TournamentSize: 24,
			PlaysPerEnv:    1,
			Environments:   []tournament.Environment{{Name: "TE", CSN: 4}},
			Tournament: tournament.Config{
				Rounds: 150,
				Mode:   network.ShorterPaths(),
				Game:   game.DefaultConfig(),
			},
		},
		GA: ga.PaperConfig(),
	}
}

// BenchmarkIslandEvolve records island-model scaling: the same total
// evolution workload sharded over 1, 2, 4 and 8 islands. CI runs it over
// the full islands × GOMAXPROCS matrix (-cpu 1,2,4,8), so every row in
// BENCH_islands.json carries the -N procs suffix plus the cores metric
// below, and benchstat comparing islands=4-4 against islands=1-4 reads
// off the real parallel speedup (target ≥2x at 4 cores). On a single
// core (-cpu 1, and the gate rows of BENCH_hotpath.json) the variants
// should tie instead, which bounds the engine's coordination overhead.
func BenchmarkIslandEvolve(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("islands=%d", n), func(b *testing.B) {
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
			for i := 0; i < b.N; i++ {
				eng, err := New(Config{
					Core:     benchConfig(1),
					Count:    n,
					Topology: Ring,
					Interval: 2,
					Migrants: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(context.Background(), runner.NewPool(runtime.GOMAXPROCS(0)), discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMigrate isolates the migration barrier itself (fully-connected,
// the densest topology) so its cost can be tracked against the evaluation
// work it amortizes over.
func BenchmarkMigrate(b *testing.B) {
	eng, err := New(Config{
		Core:     benchConfig(1),
		Count:    8,
		Topology: FullyConnected,
		Interval: 1,
		Migrants: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.migrate(); err != nil {
			b.Fatal(err)
		}
	}
}
