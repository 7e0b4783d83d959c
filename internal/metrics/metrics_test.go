package metrics

import (
	"math"
	"testing"

	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
	"adhocga/internal/tournament"
)

func players() (src *game.Player, normal *game.Player, selfish *game.Player) {
	return game.NewNormal(0, strategy.AllForward()),
		game.NewNormal(1, strategy.AllForward()),
		game.NewSelfish(2)
}

func TestRecordGameDelivered(t *testing.T) {
	c := NewCollector()
	src, n1, _ := players()
	c.RecordGame(src, []*game.Player{n1}, -1)
	envs := c.Environments()
	if len(envs) != 1 {
		t.Fatalf("%d environments", len(envs))
	}
	if envs[0].NormalGames != 1 || envs[0].NormalDelivered != 1 {
		t.Errorf("env stats %+v", envs[0])
	}
	if envs[0].CSNFreePaths != 1 {
		t.Errorf("CSN-free count %d, want 1", envs[0].CSNFreePaths)
	}
	if c.CooperationLevel() != 1 {
		t.Errorf("coop level %v", c.CooperationLevel())
	}
	if c.FromNormal.Accepted != 1 || c.FromNormal.Total() != 1 {
		t.Errorf("request counts %+v", c.FromNormal)
	}
}

func TestRecordGameDroppedBySelfish(t *testing.T) {
	c := NewCollector()
	src, n1, s1 := players()
	// Path: n1 forwards, s1 drops, (hypothetical third never receives).
	third := game.NewNormal(3, strategy.AllForward())
	c.RecordGame(src, []*game.Player{n1, s1, third}, 1)
	envs := c.Environments()
	if envs[0].NormalDelivered != 0 || envs[0].NormalGames != 1 {
		t.Errorf("env stats %+v", envs[0])
	}
	if envs[0].CSNFreePaths != 0 {
		t.Error("path with CSN counted as CSN-free")
	}
	// Requests: n1 accepted, s1 rejected; third never decided.
	if c.FromNormal.Accepted != 1 || c.FromNormal.RejectedBySelfish != 1 || c.FromNormal.RejectedByNormal != 0 {
		t.Errorf("request counts %+v", c.FromNormal)
	}
	if c.FromNormal.Total() != 2 {
		t.Errorf("total requests %d, want 2", c.FromNormal.Total())
	}
}

func TestRecordGameDroppedByNormal(t *testing.T) {
	c := NewCollector()
	src := game.NewNormal(0, strategy.AllForward())
	dropper := game.NewNormal(1, strategy.AllDiscard())
	c.RecordGame(src, []*game.Player{dropper}, 0)
	if c.FromNormal.RejectedByNormal != 1 {
		t.Errorf("request counts %+v", c.FromNormal)
	}
	if c.CooperationLevel() != 0 {
		t.Errorf("coop level %v", c.CooperationLevel())
	}
}

func TestRecordGameFromCSNSource(t *testing.T) {
	c := NewCollector()
	csnSrc := game.NewSelfish(9)
	n1 := game.NewNormal(1, strategy.AllForward())
	c.RecordGame(csnSrc, []*game.Player{n1}, -1)
	// CSN-sourced games do not contribute to the cooperation level.
	if c.Environments()[0].NormalGames != 0 {
		t.Error("CSN game counted as normal game")
	}
	if c.FromCSN.Accepted != 1 || c.FromNormal.Total() != 0 {
		t.Errorf("CSN request counts %+v / %+v", c.FromCSN, c.FromNormal)
	}
}

func TestPerEnvironmentSeparation(t *testing.T) {
	c := NewCollector()
	src, n1, _ := players()
	c.BeginEnvironment(0, tournament.Environment{Name: "TE1"})
	c.RecordGame(src, []*game.Player{n1}, -1)
	c.RecordGame(src, []*game.Player{n1}, -1)
	c.BeginEnvironment(1, tournament.Environment{Name: "TE2"})
	c.RecordGame(src, []*game.Player{n1}, 0)
	envs := c.Environments()
	if len(envs) != 2 {
		t.Fatalf("%d environments", len(envs))
	}
	if envs[0].Name != "TE1" || envs[1].Name != "TE2" {
		t.Errorf("names %q, %q", envs[0].Name, envs[1].Name)
	}
	if envs[0].CooperationLevel() != 1 {
		t.Errorf("TE1 coop %v", envs[0].CooperationLevel())
	}
	if envs[1].CooperationLevel() != 0 {
		t.Errorf("TE2 coop %v", envs[1].CooperationLevel())
	}
	// Overall: 2 of 3 delivered.
	if math.Abs(c.CooperationLevel()-2.0/3.0) > 1e-12 {
		t.Errorf("overall coop %v", c.CooperationLevel())
	}
	// Unweighted env mean: (1 + 0)/2.
	if math.Abs(c.MeanEnvCooperation()-0.5) > 1e-12 {
		t.Errorf("mean env coop %v", c.MeanEnvCooperation())
	}
}

func TestFractions(t *testing.T) {
	rc := ResponseCounts{Accepted: 6, RejectedByNormal: 3, RejectedBySelfish: 1}
	a, rn, rs := rc.Fractions()
	if math.Abs(a-0.6) > 1e-12 || math.Abs(rn-0.3) > 1e-12 || math.Abs(rs-0.1) > 1e-12 {
		t.Errorf("fractions %v %v %v", a, rn, rs)
	}
	var empty ResponseCounts
	a, rn, rs = empty.Fractions()
	if a != 0 || rn != 0 || rs != 0 {
		t.Error("empty fractions nonzero")
	}
}

func TestCollectorReset(t *testing.T) {
	c := NewCollector()
	src, n1, _ := players()
	c.BeginEnvironment(0, tournament.Environment{Name: "X"})
	c.RecordGame(src, []*game.Player{n1}, -1)
	c.Reset()
	if len(c.Environments()) != 0 || c.FromNormal.Total() != 0 {
		t.Error("Reset left data behind")
	}
	// Usable after reset.
	c.RecordGame(src, []*game.Player{n1}, -1)
	if c.CooperationLevel() != 1 {
		t.Error("collector unusable after Reset")
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector()
	if c.CooperationLevel() != 0 || c.MeanEnvCooperation() != 0 {
		t.Error("empty collector should report 0")
	}
	var e EnvStats
	if e.CooperationLevel() != 0 || e.CSNFreeFraction() != 0 {
		t.Error("empty env stats should report 0")
	}
}

// Integration: run a real evaluation and check the collector's books
// balance against the players' accounts.
func TestCollectorAgainstEvaluation(t *testing.T) {
	normals := make([]*game.Player, 30)
	for i := range normals {
		normals[i] = game.NewNormal(network.NodeID(i), strategy.ForwardAtOrAbove(strategy.Trust1, strategy.Forward))
	}
	csn := []*game.Player{game.NewSelfish(30), game.NewSelfish(31), game.NewSelfish(32)}
	registry := tournament.BuildRegistry(normals, csn)
	cfg := &tournament.EvalConfig{
		TournamentSize: 15,
		PlaysPerEnv:    1,
		Environments:   []tournament.Environment{{Name: "A", CSN: 0}, {Name: "B", CSN: 3}},
		Tournament: tournament.Config{
			Rounds: 20,
			Mode:   network.ShorterPaths(),
			Game:   game.DefaultConfig(),
		},
	}
	c := NewCollector()
	gen := network.NewGenerator(cfg.Tournament.Mode)
	if err := new(tournament.EvalState).EvaluateWithAdversaries(normals, csn, nil, registry, cfg, gen, rng.New(13), c); err != nil {
		t.Fatal(err)
	}
	// Books: collector's normal games == Σ normal players' Sent;
	// delivered likewise.
	var sent, delivered uint64
	for _, p := range normals {
		sent += uint64(p.Acct.Sent)
		delivered += uint64(p.Acct.Delivered)
	}
	var games, del uint64
	for _, e := range c.Environments() {
		games += e.NormalGames
		del += e.NormalDelivered
	}
	if games != sent || del != delivered {
		t.Errorf("collector books (%d games, %d delivered) disagree with accounts (%d, %d)",
			games, del, sent, delivered)
	}
	// Requests: total accepted == Σ forwards across all players.
	var forwards, discards uint64
	for _, p := range normals {
		forwards += uint64(p.Acct.Forwards)
		discards += uint64(p.Acct.Discards)
	}
	for _, p := range csn {
		forwards += uint64(p.Acct.Forwards)
		discards += uint64(p.Acct.Discards)
	}
	accepted := c.FromNormal.Accepted + c.FromCSN.Accepted
	rejected := c.FromNormal.RejectedByNormal + c.FromNormal.RejectedBySelfish +
		c.FromCSN.RejectedByNormal + c.FromCSN.RejectedBySelfish
	if accepted != forwards || rejected != discards {
		t.Errorf("request books (acc %d, rej %d) disagree with accounts (fwd %d, disc %d)",
			accepted, rejected, forwards, discards)
	}
}

// RecordGame's request tallies equal the per-decision definition — every
// intermediate that received the packet decided once: those before the
// first drop forwarded, the dropper rejected — over random paths mixing
// all three node types as sources, intermediates and droppers.
func TestRecordGameMatchesPerDecisionTally(t *testing.T) {
	r := rng.New(3)
	pool := []*game.Player{
		game.NewNormal(0, strategy.AllForward()),
		game.NewSelfish(1),
		game.NewByzantine(2, game.AdvFreeRider, strategy.AllDiscard()),
	}
	c := NewCollector()
	var want [3]ResponseCounts
	for g := 0; g < 5000; g++ {
		src := pool[r.Intn(len(pool))]
		inters := make([]*game.Player, 1+r.Intn(network.MaxHops-1))
		for i := range inters {
			inters[i] = pool[r.Intn(len(pool))]
		}
		firstDrop := r.Intn(len(inters)+1) - 1 // -1: delivered
		c.RecordGame(src, inters, firstDrop)

		w := &want[src.Type]
		for i, p := range inters {
			switch {
			case firstDrop < 0 || i < firstDrop:
				w.Accepted++
				continue
			case p.Type == game.Selfish:
				w.RejectedBySelfish++
			case p.Type == game.Byzantine:
				w.RejectedByByzantine++
			default:
				w.RejectedByNormal++
			}
			break
		}
	}
	got := [3]ResponseCounts{}
	got[game.Normal], got[game.Selfish], got[game.Byzantine] = c.FromNormal, c.FromCSN, c.FromByz
	if got != want {
		t.Errorf("request tallies %+v, per-decision definition %+v", got, want)
	}
}
