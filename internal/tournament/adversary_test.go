package tournament

import (
	"testing"

	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
)

// The adversary seams of the dynamics extension, tested at the tournament
// level: Byzantine seats in the evaluation scheme, the RoundDriver
// perturbation hook, and gossip lying.

func TestEvaluateWithAdversariesSeats(t *testing.T) {
	normals := makeNormals(10, strategy.AllForward())
	csn := []*game.Player{game.NewSelfish(10), game.NewSelfish(11)}
	byz := []*game.Player{
		game.NewByzantine(12, game.AdvFreeRider, strategy.AllDiscard()),
		game.NewByzantine(13, game.AdvLiar, strategy.AllForward()),
	}
	registry := BuildRegistry(normals, csn, byz)
	cfg := &EvalConfig{
		TournamentSize: 6,
		PlaysPerEnv:    1,
		Environments:   []Environment{{Name: "TE", CSN: 2}},
		Tournament:     *testConfig(5),
	}
	rec := &participantRecorder{}
	var es EvalState
	if err := es.EvaluateWithAdversaries(normals, csn, byz, registry, cfg, network.NewGenerator(cfg.Tournament.Mode), rng.New(3), rec); err != nil {
		t.Fatal(err)
	}
	// Every byz player must have played: they hold a seat in every
	// tournament, so their accounts record events.
	for _, p := range byz {
		if p.Acct.Events == 0 {
			t.Errorf("adversary %d never played", p.ID)
		}
	}
}

// participantRecorder implements game.Recorder and Recorder minimally.
type participantRecorder struct{ games int }

func (r *participantRecorder) RecordGame(src *game.Player, inters []*game.Player, firstDrop int) {
	r.games++
}
func (r *participantRecorder) BeginEnvironment(index int, env Environment) {}

func TestEvaluateWithAdversariesRejectsOvercrowding(t *testing.T) {
	normals := makeNormals(10, strategy.AllForward())
	csn := []*game.Player{game.NewSelfish(10), game.NewSelfish(11)}
	var byz []*game.Player
	for i := 0; i < 4; i++ { // 4 byz + 2 CSN fill all 6 seats: no normals
		byz = append(byz, game.NewByzantine(network.NodeID(12+i), game.AdvFreeRider, strategy.AllDiscard()))
	}
	registry := BuildRegistry(normals, csn, byz)
	cfg := &EvalConfig{
		TournamentSize: 6,
		PlaysPerEnv:    1,
		Environments:   []Environment{{Name: "TE", CSN: 2}},
		Tournament:     *testConfig(5),
	}
	var es EvalState
	err := es.EvaluateWithAdversaries(normals, csn, byz, registry, cfg, network.NewGenerator(cfg.Tournament.Mode), rng.New(3), nil)
	if err == nil {
		t.Fatal("overcrowded tournament accepted")
	}
}

// TestEvaluateWithEmptyAdversariesBitIdentical pins that an empty cohort
// replays the pass without one exactly — same RNG consumption, same
// accounts.
func TestEvaluateWithEmptyAdversariesBitIdentical(t *testing.T) {
	build := func() ([]*game.Player, []*game.Player, []*game.Player, *EvalConfig) {
		r := rng.New(77)
		normals := make([]*game.Player, 8)
		for i := range normals {
			normals[i] = game.NewNormal(network.NodeID(i), strategy.Random(r))
		}
		csn := []*game.Player{game.NewSelfish(8)}
		registry := BuildRegistry(normals, csn)
		cfg := &EvalConfig{
			TournamentSize: 5,
			PlaysPerEnv:    2,
			Environments:   []Environment{{Name: "TE", CSN: 1}},
			Tournament:     *testConfig(10),
		}
		return normals, csn, registry, cfg
	}
	n1, c1, r1, cfg1 := build()
	if err := new(EvalState).EvaluateWithAdversaries(n1, c1, nil, r1, cfg1, network.NewGenerator(cfg1.Tournament.Mode), rng.New(5), nil); err != nil {
		t.Fatal(err)
	}
	n2, c2, r2, cfg2 := build()
	var es EvalState
	if err := es.EvaluateWithAdversaries(n2, c2, []*game.Player{}, r2, cfg2, network.NewGenerator(cfg2.Tournament.Mode), rng.New(5), nil); err != nil {
		t.Fatal(err)
	}
	for i := range n1 {
		if n1[i].Acct != n2[i].Acct {
			t.Errorf("player %d account diverged: %+v vs %+v", i, n1[i].Acct, n2[i].Acct)
		}
	}
}

// flipDriver records BeginRound calls and flips one player's strategy.
type flipDriver struct {
	calls int
	strat [2]strategy.Strategy // [off, on]
	on    int                  // rounds per phase
}

func (d *flipDriver) BeginRound(round int, participants []*game.Player) {
	d.calls++
	st := d.strat[0]
	if round%(2*d.on) < d.on {
		st = d.strat[1]
	}
	for _, p := range participants {
		if p.Adv == game.AdvOnOff {
			p.Strategy = st
		}
	}
}

func TestRoundDriverIsCalledEveryRound(t *testing.T) {
	normals := makeNormals(4, strategy.AllForward())
	onoff := game.NewByzantine(4, game.AdvOnOff, strategy.AllForward())
	participants := append(append([]*game.Player{}, normals...), onoff)
	registry := BuildRegistry(normals, []*game.Player{onoff})
	cfg := testConfig(12)
	driver := &flipDriver{strat: [2]strategy.Strategy{strategy.AllDiscard(), strategy.AllForward()}, on: 3}
	cfg.RoundDriver = driver
	PlayWith(participants, registry, cfg, network.NewGenerator(cfg.Mode), rng.New(9), nil, &Scratch{})
	if driver.calls != cfg.Rounds {
		t.Errorf("driver called %d times over %d rounds", driver.calls, cfg.Rounds)
	}
	// The on-off player both forwarded and discarded across phases.
	if onoff.Acct.Forwards == 0 || onoff.Acct.Discards == 0 {
		t.Errorf("on-off player never switched phases: %d forwards, %d discards",
			onoff.Acct.Forwards, onoff.Acct.Discards)
	}
}

// TestGossipLiarLaundersBadReputation pins the lying mechanics end to end:
// with an honest peer pool a defector's reputation stays low; a liar in
// the pool injects inverted reports that pass the positive-only filter and
// inflate it.
func TestGossipLiarLaundersBadReputation(t *testing.T) {
	const defectorID = 99
	build := func(withLiar bool) *game.Player {
		receiver := game.NewNormal(0, strategy.AllForward())
		honest := game.NewNormal(1, strategy.AllForward())
		// The honest peer has watched the defector drop everything.
		for i := 0; i < 20; i++ {
			observe(honest, defectorID, false)
		}
		liar := game.NewByzantine(2, game.AdvLiar, strategy.AllForward())
		for i := 0; i < 20; i++ {
			observe(liar, defectorID, false)
		}
		participants := []*game.Player{receiver, honest}
		if withLiar {
			participants = append(participants, liar)
		}
		cfg := testConfig(1)
		cfg.GossipInterval = 1
		cfg.GossipWeight = 0.5
		cfg.GossipMinRate = 0.5
		var sc Scratch
		// Drive gossip many times so the receiver eventually samples
		// every peer in the pool.
		gossipRounds(participants, cfg, rng.New(4), 50, false, &sc)
		return receiver
	}
	// Honest gossip filters the negative report entirely (CORE's
	// positive-only exchange), so the receiver learns nothing about the
	// defector — and certainly nothing good.
	honestOnly := build(false)
	if rate, known := rateOf(honestOnly, defectorID); known && rate > 0.01 {
		t.Fatalf("honest gossip gave the defector rate %v, want unknown or ~0", rate)
	}
	withLiar := build(true)
	rate, known := rateOf(withLiar, defectorID)
	if !known || rate <= 0.4 {
		t.Errorf("liar failed to launder the defector: rate %v (known %v)", rate, known)
	}
}

// TestGossipWithoutLiarsUnchanged pins that the liar-aware pool replays
// the pre-adversary draw sequence when no liars participate: same peers,
// same merges, same RNG state afterward.
func TestGossipWithoutLiarsUnchanged(t *testing.T) {
	run := func() (*rng.Source, []*game.Player) {
		players := makeNormals(6, strategy.AllForward())
		for i, p := range players {
			for j := range players {
				if i != j {
					observe(p, network.NodeID(j), true)
				}
			}
		}
		cfg := testConfig(1)
		cfg.GossipInterval = 1
		cfg.GossipWeight = 0.25
		cfg.GossipMinRate = 0.5
		r := rng.New(21)
		var sc Scratch
		gossipRounds(players, cfg, r, 10, false, &sc)
		return r, players
	}
	r1, p1 := run()
	r2, p2 := run()
	if r1.Uint64() != r2.Uint64() {
		t.Error("RNG streams diverged")
	}
	for i := range p1 {
		for j := range p1 {
			if p1[i].Rep.Counters(network.NodeID(j)) != p2[i].Rep.Counters(network.NodeID(j)) {
				t.Errorf("player %d's view of %d diverged", i, j)
			}
		}
	}
}
