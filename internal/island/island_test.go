package island

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"adhocga/internal/bitstring"
	"adhocga/internal/core"
	"adhocga/internal/event"
	"adhocga/internal/ga"
	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/runner"
	"adhocga/internal/strategy"
	"adhocga/internal/tournament"
)

// discard is the emit function of runs whose events a test ignores.
func discard(event.Event) {}

// testConfig builds a small, fast evolution configuration whose population
// divides evenly into 1, 2, 3, 4, 6 or 8 islands while still satisfying
// the tournament-size constraint (T−CSN = 4 normals ≤ 6 = pop/8).
func testConfig(totalPop, gens int, seed uint64) core.Config {
	return core.Config{
		PopulationSize: totalPop,
		Generations:    gens,
		Seed:           seed,
		Eval: tournament.EvalConfig{
			TournamentSize: 6,
			PlaysPerEnv:    1,
			Environments:   []tournament.Environment{{Name: "TE", CSN: 2}},
			Tournament: tournament.Config{
				Rounds: 20,
				Mode:   network.ShorterPaths(),
				Game:   game.DefaultConfig(),
			},
		},
		GA: ga.PaperConfig(),
	}
}

func TestTopologyEdges(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		got, err := Ring.Edges(4, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := [][]int{{1}, {2}, {3}, {0}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Ring.Edges(4) = %v, want %v", got, want)
		}
	})
	t.Run("ring-2", func(t *testing.T) {
		got, _ := Ring.Edges(2, nil)
		want := [][]int{{1}, {0}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Ring.Edges(2) = %v, want %v", got, want)
		}
	})
	t.Run("full", func(t *testing.T) {
		got, err := FullyConnected.Edges(3, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := [][]int{{1, 2}, {0, 2}, {0, 1}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("FullyConnected.Edges(3) = %v, want %v", got, want)
		}
	})
	t.Run("random-pairs", func(t *testing.T) {
		r := rng.New(7)
		for trial := 0; trial < 50; trial++ {
			for _, n := range []int{2, 4, 5, 8} {
				edges, err := RandomPairs.Edges(n, r)
				if err != nil {
					t.Fatal(err)
				}
				// Every island has 0 or 1 partners; partnerships are
				// mutual; exactly n - n%2 islands are paired.
				paired := 0
				for i, dests := range edges {
					if len(dests) > 1 {
						t.Fatalf("n=%d island %d has %d partners", n, i, len(dests))
					}
					if len(dests) == 1 {
						paired++
						j := dests[0]
						if j == i {
							t.Fatalf("n=%d island %d paired with itself", n, i)
						}
						if len(edges[j]) != 1 || edges[j][0] != i {
							t.Fatalf("n=%d pairing %d→%d not mutual: %v", n, i, j, edges[j])
						}
					}
				}
				if want := n - n%2; paired != want {
					t.Fatalf("n=%d has %d paired islands, want %d", n, paired, want)
				}
			}
		}
	})
	t.Run("single-island", func(t *testing.T) {
		for _, topo := range []Topology{Ring, FullyConnected, RandomPairs} {
			edges, err := topo.Edges(1, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			if len(edges) != 1 || len(edges[0]) != 0 {
				t.Errorf("%s.Edges(1) = %v, want one empty row", topo, edges)
			}
		}
	})
	t.Run("unknown", func(t *testing.T) {
		if _, err := Topology("star").Edges(4, nil); err == nil {
			t.Error("unknown topology did not error")
		}
	})
}

func TestParseTopologyAndReplacement(t *testing.T) {
	for name, want := range map[string]Topology{
		"": Ring, "ring": Ring, "full": FullyConnected,
		"fully-connected": FullyConnected, "complete": FullyConnected,
		"random-pairs": RandomPairs, "random": RandomPairs,
	} {
		got, err := ParseTopology(name)
		if err != nil || got != want {
			t.Errorf("ParseTopology(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseTopology("mesh"); err == nil {
		t.Error("ParseTopology accepted an unknown name")
	}
	for name, want := range map[string]Replacement{
		"": ReplaceWorst, "worst": ReplaceWorst, "random": ReplaceRandom,
	} {
		got, err := ParseReplacement(name)
		if err != nil || got != want {
			t.Errorf("ParseReplacement(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseReplacement("best"); err == nil {
		t.Error("ParseReplacement accepted an unknown name")
	}
}

func TestConfigValidate(t *testing.T) {
	base := testConfig(48, 4, 1)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero-count", func(c *Config) { c.Count = -1 }},
		{"indivisible", func(c *Config) { c.Count = 5 }},
		{"bad-topology", func(c *Config) { c.Topology = "mesh" }},
		{"bad-replace", func(c *Config) { c.Replace = "best" }},
		{"negative-interval", func(c *Config) { c.Interval = -3 }},
		{"too-many-migrants", func(c *Config) { c.Count = 8; c.Migrants = 6 }},
		{"island-too-small", func(c *Config) { c.Count = 24 }}, // 2 normals < T−CSN
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Core: base, Count: 4}
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", cfg)
			}
			if _, err := New(cfg); err == nil {
				t.Errorf("New accepted %+v", cfg)
			}
		})
	}
	good := Config{Core: base, Count: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected a good config: %v", err)
	}
}

// TestOneIslandBitIdenticalToSerial pins the degenerate-case contract: a
// 1-island engine must replay the serial core engine exactly — same
// cooperation series bits, same final strategies, same fitness statistics.
func TestOneIslandBitIdenticalToSerial(t *testing.T) {
	cfg := testConfig(24, 5, 42)

	serialEng, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := serialEng.Run(context.Background(), discard)
	if err != nil {
		t.Fatal(err)
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
	if !reflect.DeepEqual(got.Aggregate.MeanEnvCoopSeries, serial.MeanEnvCoopSeries) {
		t.Error("MeanEnvCoopSeries diverged")
	}
	if !reflect.DeepEqual(got.Aggregate.CoopPerEnvSeries, serial.CoopPerEnvSeries) {
		t.Error("CoopPerEnvSeries diverged")
	}
	if got.Aggregate.FinalFitness != serial.FinalFitness {
		t.Errorf("FinalFitness = %+v, want %+v", got.Aggregate.FinalFitness, serial.FinalFitness)
	}
	if len(got.Aggregate.FinalStrategies) != len(serial.FinalStrategies) {
		t.Fatalf("FinalStrategies length %d, want %d", len(got.Aggregate.FinalStrategies), len(serial.FinalStrategies))
	}
	for i := range serial.FinalStrategies {
		if got.Aggregate.FinalStrategies[i].Key() != serial.FinalStrategies[i].Key() {
			t.Errorf("FinalStrategies[%d] = %s, want %s", i,
				got.Aggregate.FinalStrategies[i].Key(), serial.FinalStrategies[i].Key())
		}
	}
	if got.Aggregate.FinalCollector.CooperationLevel() != serial.FinalCollector.CooperationLevel() {
		t.Error("FinalCollector cooperation diverged")
	}
	if got.Aggregate.FinalCollector.FromNormal != serial.FinalCollector.FromNormal {
		t.Error("FromNormal counts diverged")
	}
	if got.MigrationEvents != 0 || got.MigrantsMoved != 0 {
		t.Errorf("single island migrated: %d events, %d moved", got.MigrationEvents, got.MigrantsMoved)
	}
}

// runFingerprint reduces a Result to the comparable signal of a run: the
// aggregate series, champion, per-island traces, and final pool.
type runFingerprint struct {
	Coop      []float64
	PerIsland []Trace
	Champion  string
	ChampFit  float64
	Final     []string
	Moved     int
}

func fingerprint(res *Result) runFingerprint {
	fp := runFingerprint{
		Coop:      res.Aggregate.CoopSeries,
		PerIsland: res.PerIsland,
		Champion:  res.Champion.Genome.String(),
		ChampFit:  res.Champion.Fitness,
		Moved:     res.MigrantsMoved,
	}
	for _, s := range res.Aggregate.FinalStrategies {
		fp.Final = append(fp.Final, s.Key())
	}
	return fp
}

// TestDeterministicAcrossParallelism pins the multi-island determinism
// contract: a fixed-seed 4-island run produces identical results and
// event bytes on pools of 1, 2 and 4 slots, at any worker cap and any
// GOMAXPROCS.
func TestDeterministicAcrossParallelism(t *testing.T) {
	for _, topo := range []Topology{Ring, FullyConnected, RandomPairs} {
		for _, replace := range []Replacement{ReplaceWorst, ReplaceRandom} {
			t.Run(fmt.Sprintf("%s-%s", topo, replace), func(t *testing.T) {
				type outcome struct {
					fp     runFingerprint
					events string
				}
				run := func(pool, par, gomaxprocs int) outcome {
					if gomaxprocs > 0 {
						prev := runtime.GOMAXPROCS(gomaxprocs)
						defer runtime.GOMAXPROCS(prev)
					}
					eng, err := New(Config{
						Core:        testConfig(24, 6, 99),
						Count:       4,
						Topology:    topo,
						Interval:    2,
						Migrants:    2,
						Replace:     replace,
						Parallelism: par,
					})
					if err != nil {
						t.Fatal(err)
					}
					var events bytes.Buffer
					enc := json.NewEncoder(&events)
					res, err := eng.Run(context.Background(), runner.NewPool(pool), func(ev event.Event) {
						if err := enc.Encode(ev); err != nil {
							t.Error(err)
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					return outcome{fingerprint(res), events.String()}
				}
				want := run(1, 0, 1)
				if want.fp.Moved == 0 {
					t.Fatal("no migration happened; test is vacuous")
				}
				for _, tc := range []struct{ pool, par, gomaxprocs int }{
					{2, 0, 0}, {4, 0, 0}, {4, 2, 0}, {4, 0, 8},
				} {
					if got := run(tc.pool, tc.par, tc.gomaxprocs); !reflect.DeepEqual(got, want) {
						t.Errorf("pool %d, parallelism %d, GOMAXPROCS %d diverged from the 1-slot pool",
							tc.pool, tc.par, tc.gomaxprocs)
					}
				}
			})
		}
	}
}

// TestTopologyAliasesRunToCompletion pins the regression where an alias
// accepted by validation ("fully-connected", "random") survived to the
// first migration barrier uncanonicalized and killed the run there.
func TestTopologyAliasesRunToCompletion(t *testing.T) {
	for _, alias := range []string{"fully-connected", "complete", "random"} {
		eng, err := New(Config{
			Core:     testConfig(24, 3, 3),
			Count:    4,
			Topology: Topology(alias),
			Interval: 1,
			Replace:  ReplaceRandom,
		})
		if err != nil {
			t.Fatalf("alias %q rejected: %v", alias, err)
		}
		res, err := eng.Run(context.Background(), runner.NewPool(0), discard)
		if err != nil {
			t.Fatalf("alias %q failed at runtime: %v", alias, err)
		}
		if res.MigrantsMoved == 0 {
			t.Errorf("alias %q moved no migrants", alias)
		}
	}
}

// TestMigrationReplacesWorst hand-crafts island populations and checks the
// worst-replacement policy moves exactly the elite genomes onto the worst
// residents along ring edges.
func TestMigrationReplacesWorst(t *testing.T) {
	eng, err := New(Config{
		Core:     testConfig(24, 2, 5),
		Count:    4,
		Topology: Ring,
		Interval: 1,
		Migrants: 2,
		Replace:  ReplaceWorst,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Give island s fitnesses 100s+i so elites and worsts are unambiguous:
	// island s's elites are indexes 5,4 (fitness 100s+5, 100s+4), its
	// worsts are indexes 0,1.
	marker := func(s, i int) bitstring.Bits {
		b := bitstring.New(13)
		if s&1 != 0 {
			b.Set(0, true)
		}
		if s&2 != 0 {
			b.Set(1, true)
		}
		if i&1 != 0 {
			b.Set(2, true)
		}
		if i&2 != 0 {
			b.Set(3, true)
		}
		if i&4 != 0 {
			b.Set(4, true)
		}
		return b
	}
	for s, isl := range eng.islands {
		pop := isl.Population()
		for i := range pop {
			pop[i] = ga.Individual{Genome: marker(s, i), Fitness: float64(100*s + i)}
		}
	}
	moved, err := eng.migrate()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 8 { // 4 edges × 2 migrants
		t.Fatalf("moved %d migrants, want 8", moved)
	}
	for d := range eng.islands {
		s := (d + 3) % 4 // ring source of island d
		pop := eng.islands[d].Population()
		// Slots 0 and 1 (the two worst) now hold source s's elites 5, 4.
		if pop[0].Genome.String() != marker(s, 5).String() || pop[0].Fitness != float64(100*s+5) {
			t.Errorf("island %d slot 0 = %s fit %v, want source %d elite 5", d, pop[0].Genome, pop[0].Fitness, s)
		}
		if pop[1].Genome.String() != marker(s, 4).String() || pop[1].Fitness != float64(100*s+4) {
			t.Errorf("island %d slot 1 = %s fit %v, want source %d elite 4", d, pop[1].Genome, pop[1].Fitness, s)
		}
		// The island's own elites are untouched.
		for i := 2; i < len(pop); i++ {
			if pop[i].Genome.String() != marker(d, i).String() {
				t.Errorf("island %d slot %d was clobbered", d, i)
			}
		}
	}
}

// TestMigrationSnapshotsElites checks an island forwards its own evolved
// elites, not migrants received earlier in the same barrier: with a ring
// 0→1→2→3→0 applied in source order, island 1 must send its original
// elite to island 2 even though island 0's migrant landed in island 1
// first.
func TestMigrationSnapshotsElites(t *testing.T) {
	eng, err := New(Config{
		Core:     testConfig(24, 2, 5),
		Count:    4,
		Topology: Ring,
		Interval: 1,
		Migrants: 1,
		Replace:  ReplaceWorst,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s, isl := range eng.islands {
		pop := isl.Population()
		for i := range pop {
			g := bitstring.New(13)
			g.Set(s, true) // island marker bit
			pop[i] = ga.Individual{Genome: g, Fitness: float64(100*s + i)}
		}
	}
	if _, err := eng.migrate(); err != nil {
		t.Fatal(err)
	}
	// Island 0 has the globally worst fitnesses, so its migrant into
	// island 1 (fitness 5) becomes island 1's worst. If elites were not
	// snapshotted, island 1 would still send its own elite — but if the
	// *population* snapshot were skipped the received genome could win.
	// Island 2's incoming migrant must carry island 1's marker bit.
	got := eng.islands[2].Population()[0]
	want := bitstring.New(13)
	want.Set(1, true)
	if got.Genome.String() != want.String() || got.Fitness != 105 {
		t.Errorf("island 2 received %s fit %v, want island 1's elite (fit 105)", got.Genome, got.Fitness)
	}
}

// TestMigrationChangesOutcome guards against silent no-op migration: with
// aggressive migration the run must differ from isolated islands.
func TestMigrationChangesOutcome(t *testing.T) {
	run := func(interval int) *Result {
		cfg := Config{
			Core:     testConfig(24, 8, 7),
			Count:    4,
			Topology: FullyConnected,
			Interval: interval,
			Migrants: 2,
		}
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), runner.NewPool(0), discard)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	isolated := run(100) // interval beyond the run length: no migration
	mixed := run(1)
	if isolated.MigrantsMoved != 0 {
		t.Fatalf("interval 100 still moved %d migrants", isolated.MigrantsMoved)
	}
	if mixed.MigrantsMoved == 0 {
		t.Fatal("interval 1 moved no migrants")
	}
	if reflect.DeepEqual(fingerprint(mixed), fingerprint(isolated)) {
		t.Error("migration had no effect on the run at all")
	}
}

// TestCheckpointHookFiresAcrossIslands pins the cross-island checkpoint
// contract: Run emits a checkpoint event at every CheckpointInterval-th
// barrier plus the final one, carrying the best-of-all-islands champion
// for that generation and the root seed, and — being purely
// observational — checkpoints never change the run.
func TestCheckpointHookFiresAcrossIslands(t *testing.T) {
	cfg := testConfig(24, 6, 42)
	cfg.CheckpointInterval = 2

	var checkpoints []*event.Checkpoint
	var gens []*event.Islands
	eng, err := New(Config{
		Core:        cfg,
		Count:       2,
		Topology:    Ring,
		Interval:    2,
		Migrants:    1,
		Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	withHooks, err := eng.Run(context.Background(), runner.NewPool(0), func(ev event.Event) {
		switch ev.Kind {
		case event.KindIslands:
			gens = append(gens, ev.Islands)
		case event.KindCheckpoint:
			checkpoints = append(checkpoints, ev.Checkpoint)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Generations 0..5 at interval 2: 0, 2, 4, plus the forced final 5.
	wantGens := []int{0, 2, 4, 5}
	if len(checkpoints) != len(wantGens) {
		t.Fatalf("%d checkpoints, want %d", len(checkpoints), len(wantGens))
	}
	for i, cp := range checkpoints {
		if cp.Gen != wantGens[i] {
			t.Errorf("checkpoint %d at generation %d, want %d", i, cp.Gen, wantGens[i])
		}
		if len(cp.Genome) != strategy.Bits {
			t.Errorf("checkpoint %d champion genome %q", i, cp.Genome)
		}
		if cp.Seed != cfg.Seed {
			t.Errorf("checkpoint %d seed %d, want the root seed %d", i, cp.Seed, cfg.Seed)
		}
		// The champion must be the best over *all* islands at that
		// barrier — cross-checked against the islands event.
		gs := gens[cp.Gen]
		bestFit, meanSum := gs.PerIsland[0].BestFit, 0.0
		for _, st := range gs.PerIsland {
			if st.BestFit > bestFit {
				bestFit = st.BestFit
			}
			meanSum += st.MeanFit
		}
		if cp.Fitness != bestFit {
			t.Errorf("checkpoint %d fitness %v, want cross-island best %v", i, cp.Fitness, bestFit)
		}
		if want := meanSum / float64(len(gs.PerIsland)); cp.MeanFit != want {
			t.Errorf("checkpoint %d mean fitness %v, want %v", i, cp.MeanFit, want)
		}
		if cp.Coop != gs.Coop {
			t.Errorf("checkpoint %d cooperation %v, want %v", i, cp.Coop, gs.Coop)
		}
	}

	// Observational: the same run without checkpoints is bit-identical.
	bare := cfg
	bare.CheckpointInterval = 0
	plainEng, err := New(Config{
		Core: bare, Count: 2, Topology: Ring, Interval: 2, Migrants: 1, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := plainEng.Run(context.Background(), runner.NewPool(0), discard)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fingerprint(withHooks), fingerprint(plain)) {
		t.Error("enabling checkpoints changed the run")
	}
}
