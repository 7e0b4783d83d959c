package dynamics

import (
	"testing"

	"adhocga/internal/bitstring"
	"adhocga/internal/ga"
	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
	"adhocga/internal/trust"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{},
		{ChurnRate: 0.5, Interval: 3},
		{ChurnRate: 1, IDHeadroom: 1},
		{RewireProb: 1, RewireStep: 1},
		{FreeRiders: 3, Liars: 2, OnOff: 1, OnRounds: 5, OffRounds: 5},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
	bad := []Config{
		{Interval: -1},
		{ChurnRate: -0.1},
		{ChurnRate: 1.1},
		{IDHeadroom: 0.5},
		{RewireProb: -1},
		{RewireProb: 2},
		{RewireStep: -0.1},
		{RewireStep: 1.5},
		{FreeRiders: -1},
		{Liars: -2},
		{OnOff: -3},
		{OnRounds: -1},
		{OffRounds: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	for _, c := range []Config{{ChurnRate: 0.1}, {RewireProb: 0.5}, {Liars: 1}} {
		if !c.Enabled() {
			t.Errorf("config %+v reports disabled", c)
		}
	}
}

func TestBarrierPhase(t *testing.T) {
	m, err := NewModel(Config{ChurnRate: 0.1, Interval: 3}, rng.New(1), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Interval 3: barriers after generations 2, 5, 8, … (same phase
	// convention as island migration).
	want := map[int]bool{2: true, 5: true, 8: true}
	for gen := 0; gen < 9; gen++ {
		if got := m.Barrier(gen); got != want[gen] {
			t.Errorf("Barrier(%d) = %v", gen, got)
		}
	}
}

func TestNewAdversariesComposition(t *testing.T) {
	m, err := NewModel(Config{FreeRiders: 2, Liars: 3, OnOff: 1}, rng.New(1), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	byz := m.NewAdversaries(50)
	if len(byz) != 6 {
		t.Fatalf("cohort size %d, want 6", len(byz))
	}
	wantAdv := []game.Adversary{game.AdvFreeRider, game.AdvFreeRider,
		game.AdvLiar, game.AdvLiar, game.AdvLiar, game.AdvOnOff}
	for i, p := range byz {
		if p.ID != network.NodeID(50+i) {
			t.Errorf("byz[%d].ID = %d, want %d", i, p.ID, 50+i)
		}
		if p.Type != game.Byzantine || p.Adv != wantAdv[i] {
			t.Errorf("byz[%d] = %v/%v, want byzantine/%v", i, p.Type, p.Adv, wantAdv[i])
		}
	}
	// Free-riders never forward; liars and on-off (initially) always do.
	if byz[0].Strategy.DecideUnknown() != strategy.Discard {
		t.Error("free-rider forwards")
	}
	if byz[2].Strategy.DecideUnknown() != strategy.Forward {
		t.Error("liar discards")
	}
	if byz[5].Strategy.DecideUnknown() != strategy.Forward {
		t.Error("on-off attacker starts discarding")
	}
}

func TestBeginRoundOnOffSchedule(t *testing.T) {
	m, err := NewModel(Config{OnOff: 1, OnRounds: 3, OffRounds: 2}, rng.New(1), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	byz := m.NewAdversaries(0)
	p := byz[0]
	wantForward := []bool{true, true, true, false, false, true, true, true, false, false}
	for round, want := range wantForward {
		m.BeginRound(round, byz)
		got := p.Strategy.DecideUnknown() == strategy.Forward
		if got != want {
			t.Errorf("round %d: forwarding=%v, want %v", round, got, want)
		}
	}
}

// buildPopulation returns n normal players with dense IDs, their genome
// slice, and the registry.
func buildPopulation(t *testing.T, n int) ([]ga.Individual, []*game.Player, []*game.Player) {
	t.Helper()
	r := rng.New(99)
	pop := make([]ga.Individual, n)
	players := make([]*game.Player, n)
	registry := make([]*game.Player, n)
	for i := range players {
		g := strategy.Random(r).Genome()
		pop[i] = ga.Individual{Genome: g}
		players[i] = game.NewNormal(network.NodeID(i), strategy.New(g.Clone()))
		players[i].Rep.EnsureSize(n)
		registry[i] = players[i]
	}
	return pop, players, registry
}

func TestChurnReplacesGenomesAndIdentities(t *testing.T) {
	const n = 10
	pop, players, registry := buildPopulation(t, n)
	before := make([]bitstring.Bits, n)
	for i := range pop {
		before[i] = pop[i].Genome.Clone()
	}
	m, err := NewModel(Config{ChurnRate: 0.3, IDHeadroom: 2}, rng.New(7), n, 0)
	if err != nil {
		t.Fatal(err)
	}
	replaced := m.Churn(pop, players, &registry)
	if replaced != 3 {
		t.Fatalf("replaced %d, want 3 (30%% of %d)", replaced, n)
	}
	changedGenomes, changedIDs := 0, 0
	for i := range pop {
		if pop[i].Genome.String() != before[i].String() {
			changedGenomes++
		}
		if players[i].ID != network.NodeID(i) {
			changedIDs++
		}
	}
	if changedGenomes != 3 {
		t.Errorf("%d genomes changed, want 3", changedGenomes)
	}
	// With headroom 2 every immigrant gets a fresh ID beyond the initial
	// space.
	if changedIDs != 3 {
		t.Errorf("%d identities changed, want 3", changedIDs)
	}
	// Registry must map every live player's (possibly new) ID and nil the
	// departed slots.
	live := 0
	for id, p := range registry {
		if p == nil {
			continue
		}
		live++
		if p.ID != network.NodeID(id) {
			t.Errorf("registry[%d] holds player with ID %d", id, p.ID)
		}
	}
	if live != n {
		t.Errorf("%d live registry entries, want %d", live, n)
	}
	if len(registry) <= n {
		t.Errorf("registry did not grow (len %d)", len(registry))
	}
}

func TestChurnForgetsReputationBothWays(t *testing.T) {
	const n = 6
	pop, players, registry := buildPopulation(t, n)
	// Everyone has observed everyone forward once, written the way a
	// tournament writes stores: through a trust.Matrix.
	var mx trust.Matrix
	stores := make([]*trust.Store, n)
	ids := make([]network.NodeID, n)
	for i, p := range players {
		stores[i], ids[i] = p.Rep, p.ID
	}
	mx.Load(stores, ids, len(registry))
	for o := range n {
		for q := range n {
			if o != q {
				mx.Cells[o*n+q] = trust.Counters{Requests: 1, Forwards: 1}
			}
		}
		mx.Known[o], mx.ForwardsSum[o] = n-1, n-1
	}
	mx.Save()
	m, err := NewModel(Config{ChurnRate: 0.34, IDHeadroom: 1}, rng.New(11), n, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Headroom 1: identities recycle in place (no fresh IDs, empty free
	// list → the departing node's own ID is reissued).
	if got := m.Churn(pop, players, &registry); got != 2 {
		t.Fatalf("replaced %d, want 2", got)
	}
	if len(registry) != n {
		t.Fatalf("registry grew to %d with headroom 1", len(registry))
	}
	fresh := 0
	for _, p := range players {
		if known, _ := p.Rep.Totals(); known == 0 {
			fresh++
			// No peer may remember the replaced identity.
			for _, q := range players {
				if q != p && q.Rep.Counters(p.ID).Requests > 0 {
					t.Errorf("player %d still remembers churned identity %d", q.ID, p.ID)
				}
			}
		}
	}
	if fresh != 2 {
		t.Errorf("%d players with blank memory, want 2", fresh)
	}
}

func TestChurnIDRecyclingAfterHeadroom(t *testing.T) {
	const n = 4
	pop, players, registry := buildPopulation(t, n)
	m, err := NewModel(Config{ChurnRate: 0.5, IDHeadroom: 1.5}, rng.New(5), n, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Headroom 1.5 over 4 IDs caps the space at 6. Churn enough times to
	// exhaust the fresh IDs and force FIFO recycling.
	for i := 0; i < 5; i++ {
		m.Churn(pop, players, &registry)
	}
	if len(registry) > 6 {
		t.Fatalf("registry grew past the headroom cap: %d", len(registry))
	}
	if m.IDSpaceGrowth != 2 {
		t.Errorf("IDSpaceGrowth = %d, want 2", m.IDSpaceGrowth)
	}
	seen := map[network.NodeID]bool{}
	for _, p := range players {
		if seen[p.ID] {
			t.Fatalf("duplicate live ID %d", p.ID)
		}
		seen[p.ID] = true
		if registry[p.ID] != p {
			t.Fatalf("registry[%d] does not hold its player", p.ID)
		}
	}
}

func TestRewireWalkStaysClamped(t *testing.T) {
	m, err := NewModel(Config{RewireProb: 1, RewireStep: 0.5}, rng.New(17), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 200; i++ {
		if m.Rewire() {
			moved++
		}
		if a := m.alpha; a < 0 || a > 1 {
			t.Fatalf("alpha %v escaped [0,1]", a)
		}
	}
	if moved != 200 {
		t.Errorf("rewire fired %d/200 times at probability 1", moved)
	}
	if m.RewireEvents != moved {
		t.Errorf("RewireEvents = %d, want %d", m.RewireEvents, moved)
	}
	if m.PathMode().Name == "" {
		t.Error("blended path mode has no name")
	}
}

func TestRewireStartsAtBaseMode(t *testing.T) {
	m, _ := NewModel(Config{RewireProb: 0.5}, rng.New(1), 10, 1)
	if m.alpha != 1 {
		t.Errorf("LP-seeded alpha = %v, want 1", m.alpha)
	}
}

func TestModelDeterminism(t *testing.T) {
	runOnce := func() ([]network.NodeID, []string) {
		pop, players, registry := buildPopulation(t, 12)
		m, err := NewModel(Config{ChurnRate: 0.25, RewireProb: 0.7, RewireStep: 0.3}, rng.New(42), 12, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			m.Churn(pop, players, &registry)
			m.Rewire()
		}
		ids := make([]network.NodeID, len(players))
		genomes := make([]string, len(players))
		for i, p := range players {
			ids[i] = p.ID
			genomes[i] = pop[i].Genome.Compact()
		}
		return ids, genomes
	}
	ids1, g1 := runOnce()
	ids2, g2 := runOnce()
	for i := range ids1 {
		if ids1[i] != ids2[i] || g1[i] != g2[i] {
			t.Fatalf("replay diverged at slot %d: %d/%s vs %d/%s", i, ids1[i], g1[i], ids2[i], g2[i])
		}
	}
}
