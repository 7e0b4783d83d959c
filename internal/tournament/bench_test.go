package tournament

import (
	"testing"

	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
)

// benchPopulation builds the paper-sized population: 100 normal players
// with random strategies plus a 30-CSN pool, all registered.
func benchPopulation(seed uint64) (normals, csn, registry []*game.Player) {
	r := rng.New(seed)
	normals = make([]*game.Player, 100)
	for i := range normals {
		normals[i] = game.NewNormal(network.NodeID(i), strategy.Random(r))
	}
	csn = make([]*game.Player, 30)
	for i := range csn {
		csn[i] = game.NewSelfish(network.NodeID(len(normals) + i))
	}
	return normals, csn, BuildRegistry(normals, csn)
}

func benchEvalConfig(rounds int) *EvalConfig {
	return &EvalConfig{
		TournamentSize: 50,
		PlaysPerEnv:    2,
		Environments:   PaperEnvironments(),
		Tournament: Config{
			Rounds: rounds,
			Mode:   network.ShorterPaths(),
			Game:   game.DefaultConfig(),
		},
	}
}

// gameCounter counts games so the benchmarks can report ns/game.
type gameCounter struct{ games int }

func (c *gameCounter) RecordGame(src *game.Player, inters []*game.Player, firstDrop int) {
	c.games++
}
func (c *gameCounter) BeginEnvironment(index int, env Environment) {}

// TestTournamentRoundZeroAllocs pins the steady-state guarantee one level
// up from game.Board.Play: a full tournament round — route generation, path
// rating, decisions, payoffs, reputation updates — performs zero heap
// allocations once the scratch buffers and dense stores are warm.
func TestTournamentRoundZeroAllocs(t *testing.T) {
	normals, csn, registry := benchPopulation(3)
	cfg := &Config{
		Rounds: 1,
		Mode:   network.ShorterPaths(),
		Game:   game.DefaultConfig(),
	}
	participants := append(append([]*game.Player{}, normals[:40]...), csn[:10]...)
	gen := network.NewGenerator(cfg.Mode)
	r := rng.New(4)
	var sc Scratch
	// Warm: grow scratch, generator buffers, and every reputation record.
	for i := 0; i < 20; i++ {
		PlayWith(participants, registry, cfg, gen, r, nil, &sc)
	}
	allocs := testing.AllocsPerRun(50, func() {
		PlayWith(participants, registry, cfg, gen, r, nil, &sc)
	})
	if allocs != 0 {
		t.Errorf("steady-state tournament round allocates %v times, want 0", allocs)
	}
}

// BenchmarkEvaluate measures one full Fig 3 evaluation pass (TE1–TE4,
// tournament size 50, L=2) at 30 rounds per tournament — the hot loop of
// every generation — through a warm EvalState, exactly as the engine runs
// it, with ~0 allocs/game.
func BenchmarkEvaluate(b *testing.B) {
	normals, csn, registry := benchPopulation(1)
	benchEvaluate(b, normals, csn, nil, registry, benchEvalConfig(30))
}

// BenchmarkEvaluateGossip is BenchmarkEvaluate with second-hand
// reputation exchange as the shipped gossip scenarios run it: every 10
// rounds at weight 0.25, with two gossip liars in every tournament. Each
// exchange merges a whole store, so this is where the board's merge path
// shows.
func BenchmarkEvaluateGossip(b *testing.B) {
	normals, csn, registry := benchPopulation(1)
	byz := []*game.Player{
		game.NewByzantine(network.NodeID(len(registry)), game.AdvLiar, strategy.AllForward()),
		game.NewByzantine(network.NodeID(len(registry)+1), game.AdvLiar, strategy.AllForward()),
	}
	registry = BuildRegistry(normals, csn, byz)
	cfg := benchEvalConfig(30)
	cfg.Tournament.GossipInterval = 10
	cfg.Tournament.GossipWeight = 0.25
	cfg.Tournament.GossipMinRate = 0.5
	benchEvaluate(b, normals, csn, byz, registry, cfg)
}

// benchEvaluate times warm evaluation passes and reports ns/game.
func benchEvaluate(b *testing.B, normals, csn, byz, registry []*game.Player, cfg *EvalConfig) {
	gen := network.NewGenerator(cfg.Tournament.Mode)

	// Count games once so ns/game can be derived from the timed loop; this
	// pass also warms the EvalState.
	var es EvalState
	var counter gameCounter
	r := rng.New(2)
	if err := es.EvaluateWithAdversaries(normals, csn, byz, registry, cfg, gen, r, &counter); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	r = rng.New(2)
	for i := 0; i < b.N; i++ {
		if err := es.EvaluateWithAdversaries(normals, csn, byz, registry, cfg, gen, r, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if counter.games > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(counter.games), "ns/game")
	}
}

// TestEvaluateZeroAllocs pins the batched-evaluation guarantee: a full
// Fig 3 evaluation pass through a warm EvalState — route generation, path
// rating, decisions, payoffs, reputation, play bookkeeping — performs zero
// heap allocations.
func TestEvaluateZeroAllocs(t *testing.T) {
	normals, csn, registry := benchPopulation(7)
	cfg := benchEvalConfig(5)
	gen := network.NewGenerator(cfg.Tournament.Mode)
	var es EvalState
	r := rng.New(8)
	// Warm: grow the EvalState, generator scratch, and every dense store.
	for i := 0; i < 3; i++ {
		if err := es.EvaluateWithAdversaries(normals, csn, nil, registry, cfg, gen, r, nil); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := es.EvaluateWithAdversaries(normals, csn, nil, registry, cfg, gen, r, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm evaluation pass allocates %v times, want 0", allocs)
	}
}
