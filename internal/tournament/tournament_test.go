package tournament

import (
	"testing"

	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
)

func testConfig(rounds int) *Config {
	return &Config{
		Rounds: rounds,
		Mode:   network.ShorterPaths(),
		Game:   game.DefaultConfig(),
	}
}

func makeNormals(n int, s strategy.Strategy) []*game.Player {
	ps := make([]*game.Player, n)
	for i := range ps {
		ps[i] = game.NewNormal(network.NodeID(i), s)
	}
	return ps
}

func TestPaperEnvironmentsMatchTable1(t *testing.T) {
	envs := PaperEnvironments()
	want := []struct {
		name string
		csn  int
	}{{"TE1", 0}, {"TE2", 10}, {"TE3", 25}, {"TE4", 30}}
	if len(envs) != len(want) {
		t.Fatalf("got %d environments", len(envs))
	}
	const size = 50
	for i, w := range want {
		if envs[i].Name != w.name || envs[i].CSN != w.csn {
			t.Errorf("env %d = %+v, want %+v", i, envs[i], w)
		}
		// Table 1's normal-node row is T - CSN.
		wantNormals := []int{50, 40, 25, 20}[i]
		if got := size - envs[i].CSN; got != wantNormals {
			t.Errorf("env %s normals = %d, want %d", envs[i].Name, got, wantNormals)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(10).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := testConfig(0)
	if err := bad.Validate(); err == nil {
		t.Error("zero rounds accepted")
	}
	bad = testConfig(5)
	bad.Mode = network.PathMode{}
	if err := bad.Validate(); err == nil {
		t.Error("missing path mode accepted")
	}
}

func TestPlayEachPlayerSourcesOncePerRound(t *testing.T) {
	const rounds = 7
	players := makeNormals(20, strategy.AllForward())
	registry := BuildRegistry(players)
	cfg := testConfig(rounds)
	gen := network.NewGenerator(cfg.Mode)
	PlayWith(players, registry, cfg, gen, rng.New(1), nil, &Scratch{})
	for _, p := range players {
		if p.Acct.Sent != rounds {
			t.Errorf("player %d sourced %d packets, want %d", p.ID, p.Acct.Sent, rounds)
		}
	}
}

func TestPlayAllForwardDeliversEverything(t *testing.T) {
	players := makeNormals(20, strategy.AllForward())
	registry := BuildRegistry(players)
	cfg := testConfig(5)
	gen := network.NewGenerator(cfg.Mode)
	PlayWith(players, registry, cfg, gen, rng.New(2), nil, &Scratch{})
	for _, p := range players {
		if p.Acct.Delivered != p.Acct.Sent {
			t.Errorf("player %d delivered %d of %d in an all-forward network",
				p.ID, p.Acct.Delivered, p.Acct.Sent)
		}
		if p.Acct.Discards != 0 {
			t.Errorf("player %d discarded %d packets", p.ID, p.Acct.Discards)
		}
	}
}

func TestPlayAllSelfishDeliversNothing(t *testing.T) {
	players := make([]*game.Player, 10)
	for i := range players {
		players[i] = game.NewSelfish(network.NodeID(i))
	}
	registry := BuildRegistry(players)
	cfg := testConfig(3)
	gen := network.NewGenerator(cfg.Mode)
	PlayWith(players, registry, cfg, gen, rng.New(3), nil, &Scratch{})
	for _, p := range players {
		if p.Acct.Delivered != 0 {
			t.Errorf("player %d delivered %d packets in an all-selfish network", p.ID, p.Acct.Delivered)
		}
		if p.Acct.Forwards != 0 {
			t.Errorf("selfish player %d forwarded", p.ID)
		}
	}
}

func TestPlayDeterministicForSeed(t *testing.T) {
	run := func() []game.Account {
		players := makeNormals(15, strategy.MustParse("010 101 101 111 1"))
		registry := BuildRegistry(players)
		cfg := testConfig(10)
		gen := network.NewGenerator(cfg.Mode)
		PlayWith(players, registry, cfg, gen, rng.New(42), nil, &Scratch{})
		accts := make([]game.Account, len(players))
		for i, p := range players {
			accts[i] = p.Acct
		}
		return accts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("player %d accounts differ across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPlayMixedNetworkPunishesSelfish(t *testing.T) {
	// 40 trust-driven normals + 10 CSN, long enough for reputations to
	// form: CSN delivery rate should collapse well below normal delivery.
	normals := makeNormals(40, strategy.ForwardAtOrAbove(strategy.Trust1, strategy.Forward))
	csn := make([]*game.Player, 10)
	for i := range csn {
		csn[i] = game.NewSelfish(network.NodeID(40 + i))
	}
	all := append(append([]*game.Player{}, normals...), csn...)
	registry := BuildRegistry(normals, csn)
	cfg := testConfig(150)
	gen := network.NewGenerator(cfg.Mode)
	PlayWith(all, registry, cfg, gen, rng.New(7), nil, &Scratch{})

	normalSent, normalDelivered := 0, 0
	for _, p := range normals {
		normalSent += p.Acct.Sent
		normalDelivered += p.Acct.Delivered
	}
	csnSent, csnDelivered := 0, 0
	for _, p := range csn {
		csnSent += p.Acct.Sent
		csnDelivered += p.Acct.Delivered
	}
	normalRate := float64(normalDelivered) / float64(normalSent)
	csnRate := float64(csnDelivered) / float64(csnSent)
	if csnRate >= normalRate {
		t.Errorf("CSN delivery rate %.3f not below normal rate %.3f", csnRate, normalRate)
	}
	if csnRate > 0.35 {
		t.Errorf("CSN delivery rate %.3f too high; reputation system not biting", csnRate)
	}
}

func TestGossipSpreadsPositiveReputation(t *testing.T) {
	// With gossip, knowledge of well-behaved nodes spreads beyond direct
	// observation: after a short tournament, players should know more
	// peers than without gossip.
	run := func(interval int) float64 {
		players := makeNormals(30, strategy.AllForward())
		registry := BuildRegistry(players)
		cfg := testConfig(10)
		cfg.GossipInterval = interval
		cfg.GossipWeight = 0.25
		cfg.GossipMinRate = 0.5
		gen := network.NewGenerator(cfg.Mode)
		PlayWith(players, registry, cfg, gen, rng.New(31), nil, &Scratch{})
		known := 0
		for _, p := range players {
			known += knownCount(p)
		}
		return float64(known) / float64(len(players))
	}
	without := run(0)
	with := run(2)
	if with <= without {
		t.Errorf("gossip should widen knowledge: %v known with vs %v without", with, without)
	}
}

func TestGossipExcludesSelfishNodes(t *testing.T) {
	// CSN neither share nor receive second-hand reputation; normals
	// exchange positive reports among themselves.
	teacher := game.NewNormal(0, strategy.AllForward())
	for i := 0; i < 10; i++ {
		observe(teacher, 5, true)
	}
	student := game.NewNormal(1, strategy.AllForward())
	csn := game.NewSelfish(2)
	observe(csn, 5, true) // CSN knowledge must never be shared

	cfg := testConfig(1)
	cfg.GossipInterval = 1
	cfg.GossipWeight = 0.5
	cfg.GossipMinRate = 0.5
	participants := []*game.Player{teacher, student, csn}
	var sc Scratch
	gossipRounds(participants, cfg, nil, 50, true, &sc) // enough exchanges for the pair to meet
	if knownCount(csn) != 1 || csn.Rep.Counters(5).Requests != 1 {
		t.Errorf("CSN store changed by gossip: %d entries, %d requests",
			knownCount(csn), csn.Rep.Counters(5).Requests)
	}
	if !knows(student, 5) {
		t.Error("student never received the positive report")
	}
}

func TestBuildRegistry(t *testing.T) {
	a := makeNormals(3, strategy.AllForward())
	b := []*game.Player{game.NewSelfish(3), game.NewSelfish(4)}
	reg := BuildRegistry(a, b)
	if len(reg) != 5 {
		t.Fatalf("registry length %d", len(reg))
	}
	for id := network.NodeID(0); id < 5; id++ {
		if reg[id] == nil || reg[id].ID != id {
			t.Errorf("registry[%d] wrong", id)
		}
	}
}

func TestBuildRegistryPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate ID accepted")
		}
	}()
	BuildRegistry(makeNormals(2, strategy.AllForward()), makeNormals(2, strategy.AllForward()))
}

func BenchmarkTournament50Players(b *testing.B) {
	players := makeNormals(50, strategy.MustParse("010 101 101 111 1"))
	registry := BuildRegistry(players)
	cfg := testConfig(1)
	gen := network.NewGenerator(cfg.Mode)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PlayWith(players, registry, cfg, gen, r, nil, &Scratch{})
	}
}
