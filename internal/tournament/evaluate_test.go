package tournament

import (
	"testing"

	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
)

func evalSetup(n, maxCSN int, s strategy.Strategy) (normals, csn []*game.Player, registry []*game.Player) {
	normals = make([]*game.Player, n)
	for i := range normals {
		normals[i] = game.NewNormal(network.NodeID(i), s)
	}
	csn = make([]*game.Player, maxCSN)
	for i := range csn {
		csn[i] = game.NewSelfish(network.NodeID(n + i))
	}
	registry = BuildRegistry(normals, csn)
	return
}

func evalConfig(size, plays, rounds int, envs []Environment) *EvalConfig {
	return &EvalConfig{
		TournamentSize: size,
		PlaysPerEnv:    plays,
		Environments:   envs,
		Tournament: Config{
			Rounds: rounds,
			Mode:   network.ShorterPaths(),
			Game:   game.DefaultConfig(),
		},
	}
}

type envCounter struct {
	begins []Environment
	games  int
}

func (e *envCounter) BeginEnvironment(_ int, env Environment) { e.begins = append(e.begins, env) }
func (e *envCounter) RecordGame(_ *game.Player, _ []*game.Player, _ int) {
	e.games++
}

func TestEvalConfigValidate(t *testing.T) {
	cfg := evalConfig(20, 1, 5, []Environment{{Name: "A", CSN: 5}})
	if err := cfg.Validate(30); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*EvalConfig)
		pop    int
	}{
		{"tiny size", func(c *EvalConfig) { c.TournamentSize = 1 }, 30},
		{"zero plays", func(c *EvalConfig) { c.PlaysPerEnv = 0 }, 30},
		{"no envs", func(c *EvalConfig) { c.Environments = nil }, 30},
		{"csn exceeds size", func(c *EvalConfig) { c.Environments[0].CSN = 20 }, 30},
		{"negative csn", func(c *EvalConfig) { c.Environments[0].CSN = -1 }, 30},
		{"population too small", func(*EvalConfig) {}, 10},
		{"zero rounds", func(c *EvalConfig) { c.Tournament.Rounds = 0 }, 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := evalConfig(20, 1, 5, []Environment{{Name: "A", CSN: 5}})
			tc.mutate(c)
			if err := c.Validate(tc.pop); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestEvaluateEveryPlayerPlaysAtLeastL(t *testing.T) {
	for _, L := range []int{1, 2} {
		normals, csn, registry := evalSetup(30, 6, strategy.AllForward())
		cfg := evalConfig(12, L, 4, []Environment{{Name: "A", CSN: 0}, {Name: "B", CSN: 6}})
		gen := network.NewGenerator(cfg.Tournament.Mode)
		if err := new(EvalState).EvaluateWithAdversaries(normals, csn, nil, registry, cfg, gen, rng.New(5), nil); err != nil {
			t.Fatal(err)
		}
		// Every player sources Rounds packets per tournament appearance,
		// and must appear ≥ L times per environment → ≥ L·R·E sends.
		minSent := L * cfg.Tournament.Rounds * len(cfg.Environments)
		for _, p := range normals {
			if p.Acct.Sent < minSent {
				t.Errorf("L=%d: player %d sent %d packets, want ≥ %d", L, p.ID, p.Acct.Sent, minSent)
			}
		}
	}
}

func TestEvaluateTopUpKeepsTournamentsFull(t *testing.T) {
	// Population 25 with Pi=10: the third tournament per environment has
	// only 5 unplayed and must be topped up to 10.
	normals, csn, registry := evalSetup(25, 0, strategy.AllForward())
	cfg := evalConfig(10, 1, 2, []Environment{{Name: "A", CSN: 0}})
	gen := network.NewGenerator(cfg.Tournament.Mode)
	rec := &envCounter{}
	if err := new(EvalState).EvaluateWithAdversaries(normals, csn, nil, registry, cfg, gen, rng.New(6), rec); err != nil {
		t.Fatal(err)
	}
	// ceil(25/10) = 3 tournaments × 10 players × 2 rounds = 60 games.
	if rec.games != 60 {
		t.Errorf("recorded %d games, want 60", rec.games)
	}
	totalSent := 0
	for _, p := range normals {
		if p.Acct.Sent == 0 {
			t.Errorf("player %d never played", p.ID)
		}
		totalSent += p.Acct.Sent
	}
	if totalSent != 60 {
		t.Errorf("total sent %d, want 60", totalSent)
	}
}

func TestEvaluateBeginsEnvironmentsInOrder(t *testing.T) {
	normals, csn, registry := evalSetup(20, 10, strategy.AllForward())
	envs := []Environment{{Name: "TE1", CSN: 0}, {Name: "TE2", CSN: 5}, {Name: "TE3", CSN: 8}}
	cfg := evalConfig(10, 1, 2, envs)
	gen := network.NewGenerator(cfg.Tournament.Mode)
	rec := &envCounter{}
	if err := new(EvalState).EvaluateWithAdversaries(normals, csn, nil, registry, cfg, gen, rng.New(7), rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.begins) != 3 {
		t.Fatalf("BeginEnvironment called %d times", len(rec.begins))
	}
	for i, env := range envs {
		if rec.begins[i] != env {
			t.Errorf("environment %d = %+v, want %+v", i, rec.begins[i], env)
		}
	}
}

func TestEvaluateClearsStateAtStart(t *testing.T) {
	normals, csn, registry := evalSetup(20, 0, strategy.AllForward())
	// Pollute state.
	observe(normals[0], 3, false)
	normals[0].Acct.Events = 99
	cfg := evalConfig(10, 1, 1, []Environment{{Name: "A", CSN: 0}})
	gen := network.NewGenerator(cfg.Tournament.Mode)
	if err := new(EvalState).EvaluateWithAdversaries(normals, csn, nil, registry, cfg, gen, rng.New(8), nil); err != nil {
		t.Fatal(err)
	}
	// 99 fake events would survive if the account had not been reset; the
	// real count after one environment of 1-round tournaments is tiny.
	if normals[0].Acct.Events >= 99 {
		t.Errorf("account not reset: %d events", normals[0].Acct.Events)
	}
}

func TestEvaluateErrorOnTooFewCSN(t *testing.T) {
	normals, csn, registry := evalSetup(20, 2, strategy.AllForward())
	cfg := evalConfig(10, 1, 1, []Environment{{Name: "A", CSN: 5}})
	gen := network.NewGenerator(cfg.Tournament.Mode)
	if err := new(EvalState).EvaluateWithAdversaries(normals, csn, nil, registry, cfg, gen, rng.New(9), nil); err == nil {
		t.Error("undersized CSN pool accepted")
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	run := func() []int {
		normals, csn, registry := evalSetup(30, 10, strategy.MustParse("010 101 101 111 1"))
		cfg := evalConfig(15, 1, 5, []Environment{{Name: "A", CSN: 0}, {Name: "B", CSN: 10}})
		gen := network.NewGenerator(cfg.Tournament.Mode)
		if err := new(EvalState).EvaluateWithAdversaries(normals, csn, nil, registry, cfg, gen, rng.New(11), nil); err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(normals))
		for i, p := range normals {
			out[i] = p.Acct.Events
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic evaluation at player %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEvaluatePaperShapeSmoke(t *testing.T) {
	// Paper shape at reduced rounds: N=100, T=50, TE1-TE4.
	if testing.Short() {
		t.Skip("short mode")
	}
	normals, csn, registry := evalSetup(100, 30, strategy.ForwardAtOrAbove(strategy.Trust1, strategy.Forward))
	cfg := &EvalConfig{
		TournamentSize: 50,
		PlaysPerEnv:    1,
		Environments:   PaperEnvironments(),
		Tournament: Config{
			Rounds: 20,
			Mode:   network.ShorterPaths(),
			Game:   game.DefaultConfig(),
		},
	}
	gen := network.NewGenerator(cfg.Tournament.Mode)
	if err := new(EvalState).EvaluateWithAdversaries(normals, csn, nil, registry, cfg, gen, rng.New(12), nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range normals {
		if p.Acct.Sent == 0 {
			t.Errorf("player %d never played", p.ID)
		}
		if p.Acct.Fitness() <= 0 {
			t.Errorf("player %d has non-positive fitness %v", p.ID, p.Acct.Fitness())
		}
	}
}

func BenchmarkEvaluatePaperEnvironments(b *testing.B) {
	normals, csn, registry := evalSetup(100, 30, strategy.MustParse("010 101 101 111 1"))
	cfg := &EvalConfig{
		TournamentSize: 50,
		PlaysPerEnv:    1,
		Environments:   PaperEnvironments(),
		Tournament: Config{
			Rounds: 10,
			Mode:   network.ShorterPaths(),
			Game:   game.DefaultConfig(),
		},
	}
	gen := network.NewGenerator(cfg.Tournament.Mode)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := new(EvalState).EvaluateWithAdversaries(normals, csn, nil, registry, cfg, gen, r, nil); err != nil {
			b.Fatal(err)
		}
	}
}
