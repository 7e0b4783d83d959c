// Package baselines provides fixed (non-evolved) node behaviors and the
// machinery to run mixed populations of them through the tournament model.
//
// The paper's related work (§2) motivates two comparison points that the
// ablation benchmarks exercise:
//
//   - watchdog/pathrater [9]: selfish nodes are routed around but not
//     punished — modeled here as an all-forward population with CSN, with
//     and without reputation-based path choice;
//   - reputation-threshold response (CORE/CONFIDANT style [2][10]):
//     forward only for sufficiently trusted sources — modeled as the
//     trust-threshold profiles.
package baselines

import (
	"fmt"

	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
	"adhocga/internal/tournament"
)

// Profile is a named fixed strategy.
type Profile struct {
	Name     string
	Strategy strategy.Strategy
}

// Standard profiles.
var (
	// AllCooperate forwards everything: the unconditionally altruistic
	// node, and the whole population under plain watchdog/pathrater.
	AllCooperate = Profile{Name: "all-cooperate", Strategy: strategy.AllForward()}
	// AllDefect discards everything: behaviorally identical to a CSN but
	// participating as a normal node.
	AllDefect = Profile{Name: "all-defect", Strategy: strategy.AllDiscard()}
	// TrustThreshold1 forwards for sources of trust ≥ 1 and for unknowns —
	// a forgiving CONFIDANT-style responder.
	TrustThreshold1 = Profile{Name: "trust>=1", Strategy: strategy.ForwardAtOrAbove(strategy.Trust1, strategy.Forward)}
	// TrustThreshold2 forwards only for trust ≥ 2, discarding unknowns — a
	// strict CORE-style responder.
	TrustThreshold2 = Profile{Name: "trust>=2", Strategy: strategy.ForwardAtOrAbove(strategy.Trust2, strategy.Discard)}
)

// StandardProfiles returns the built-in profiles.
func StandardProfiles() []Profile {
	return []Profile{AllCooperate, AllDefect, TrustThreshold1, TrustThreshold2}
}

// ProfileByName resolves a standard profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range StandardProfiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("baselines: unknown profile %q", name)
}

// Group is a count of players sharing a profile.
type Group struct {
	Profile Profile
	Count   int
}

// MixConfig describes a fixed-population tournament.
type MixConfig struct {
	Groups     []Group
	CSN        int // constantly selfish nodes added to the tournament
	Rounds     int
	Mode       network.PathMode
	PathChoice tournament.PathChoice
	Game       game.Config
	Seed       uint64
	// GossipInterval enables second-hand reputation exchange every N
	// rounds (0 = off). Weight and minimum rate default to 0.25 and 0.5
	// when unset.
	GossipInterval int
	GossipWeight   float64
	GossipMinRate  float64
}

// Validate checks the mix.
func (c *MixConfig) Validate() error {
	if c.CSN < 0 {
		return fmt.Errorf("baselines: negative CSN count %d", c.CSN)
	}
	total := c.CSN
	for _, g := range c.Groups {
		if g.Count < 0 {
			return fmt.Errorf("baselines: negative group count for %q", g.Profile.Name)
		}
		total += g.Count
	}
	if total < 2 {
		return fmt.Errorf("baselines: mix has %d players, need at least 2", total)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("baselines: rounds must be positive")
	}
	return c.Game.Validate()
}

// GroupStats reports per-group outcomes of a mix run.
type GroupStats struct {
	Name string
	// DeliveryRate is the fraction of the group's own packets delivered.
	DeliveryRate float64
	// Fitness is the group's mean eq. 1 fitness.
	Fitness float64
	// ForwardShare is the fraction of the group's forwarding requests it
	// accepted.
	ForwardShare float64
}

// MixResult aggregates a mix run.
type MixResult struct {
	// Cooperation is the delivery rate over packets originated by
	// non-CSN players.
	Cooperation float64
	// CSNDelivery is the delivery rate of CSN-originated packets.
	CSNDelivery float64
	Groups      []GroupStats
}

// RunMix plays one tournament with the given fixed population and reports
// the outcome. Deterministic for a given config.
func RunMix(cfg MixConfig) (*MixResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)

	var players []*game.Player
	groupOf := make(map[network.NodeID]int)
	id := network.NodeID(0)
	for gi, g := range cfg.Groups {
		for i := 0; i < g.Count; i++ {
			players = append(players, game.NewNormal(id, g.Profile.Strategy))
			groupOf[id] = gi
			id++
		}
	}
	var csn []*game.Player
	for i := 0; i < cfg.CSN; i++ {
		p := game.NewSelfish(id)
		csn = append(csn, p)
		id++
	}
	all := append(append([]*game.Player{}, players...), csn...)
	registry := tournament.BuildRegistry(players, csn)

	gossipWeight := cfg.GossipWeight
	if cfg.GossipInterval > 0 && gossipWeight == 0 {
		gossipWeight = 0.25
	}
	gossipMinRate := cfg.GossipMinRate
	if cfg.GossipInterval > 0 && gossipMinRate == 0 {
		gossipMinRate = 0.5
	}
	tcfg := &tournament.Config{
		Rounds:         cfg.Rounds,
		Mode:           cfg.Mode,
		PathChoice:     cfg.PathChoice,
		Game:           cfg.Game,
		GossipInterval: cfg.GossipInterval,
		GossipWeight:   gossipWeight,
		GossipMinRate:  gossipMinRate,
	}
	gen := network.NewGenerator(cfg.Mode)
	tournament.PlayWith(all, registry, tcfg, gen, r, nil, &tournament.Scratch{})

	res := &MixResult{Groups: make([]GroupStats, len(cfg.Groups))}
	var normalSent, normalDelivered, csnSent, csnDelivered int
	type acc struct {
		sent, delivered, forwards, discards int
		fitness                             float64
		n                                   int
	}
	accs := make([]acc, len(cfg.Groups))
	for _, p := range players {
		gi := groupOf[p.ID]
		a := &accs[gi]
		a.sent += p.Acct.Sent
		a.delivered += p.Acct.Delivered
		a.forwards += p.Acct.Forwards
		a.discards += p.Acct.Discards
		a.fitness += p.Acct.Fitness()
		a.n++
		normalSent += p.Acct.Sent
		normalDelivered += p.Acct.Delivered
	}
	for _, p := range csn {
		csnSent += p.Acct.Sent
		csnDelivered += p.Acct.Delivered
	}
	for gi, g := range cfg.Groups {
		a := accs[gi]
		gs := GroupStats{Name: g.Profile.Name}
		if a.sent > 0 {
			gs.DeliveryRate = float64(a.delivered) / float64(a.sent)
		}
		if a.n > 0 {
			gs.Fitness = a.fitness / float64(a.n)
		}
		if req := a.forwards + a.discards; req > 0 {
			gs.ForwardShare = float64(a.forwards) / float64(req)
		}
		res.Groups[gi] = gs
	}
	if normalSent > 0 {
		res.Cooperation = float64(normalDelivered) / float64(normalSent)
	}
	if csnSent > 0 {
		res.CSNDelivery = float64(csnDelivered) / float64(csnSent)
	}
	return res, nil
}
