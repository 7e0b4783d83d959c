// Package tournament implements the strategy evaluation machinery of §4.4:
// single tournaments (R rounds in which every participant sources one
// packet per round) and the multi-environment evaluation scheme of Fig 3
// that exposes each generation's strategies to a series of network
// conditions with different numbers of constantly selfish nodes.
package tournament

import (
	"fmt"

	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/rng"
)

// Environment is one tournament environment (Tab 1): a name and the number
// of CSN among the participants. The number of normal players is
// TournamentSize − CSN.
type Environment struct {
	Name string
	CSN  int
}

// PaperEnvironments returns TE1–TE4 as defined in Table 1 for the paper's
// tournament size of 50: 0, 10, 25 and 30 CSN.
func PaperEnvironments() []Environment {
	return []Environment{
		{Name: "TE1", CSN: 0},
		{Name: "TE2", CSN: 10},
		{Name: "TE3", CSN: 25},
		{Name: "TE4", CSN: 30},
	}
}

// PathChoice selects how a source chooses among its candidate routes.
type PathChoice uint8

const (
	// BestReputation picks the route with the highest rating (§3.1); the
	// paper's behavior and the zero value.
	BestReputation PathChoice = iota
	// RandomPath picks uniformly among candidates, ignoring reputation.
	// Used by the ablation benchmarks to quantify how much of the
	// cooperation enforcement comes from route avoidance.
	RandomPath
)

// Config parameterizes one tournament.
type Config struct {
	Rounds     int              // R: rounds per tournament (paper: 300)
	Mode       network.PathMode // SP or LP path mode (§6.1)
	PathChoice PathChoice       // route selection rule (default BestReputation)
	Game       game.Config

	// Gossip enables CORE-style second-hand reputation exchange (an
	// extension beyond the paper's first-hand-only mechanism; see
	// trust.Matrix.Merge): every GossipInterval rounds each normal
	// player imports one random peer's positive observations at
	// GossipWeight credibility. Byzantine gossip liars join the peer pool
	// and inject inverted observations; only normal players receive.
	// GossipInterval 0 disables it.
	GossipInterval int
	GossipWeight   float64
	GossipMinRate  float64

	// RoundDriver, when non-nil, is notified before every tournament
	// round with the full participant set — the perturbation hook the
	// dynamics layer uses to advance round-scheduled adversaries (on-off
	// attackers swap strategies here). It may change strategies only:
	// accounts and stores are written back at the end of the tournament.
	// It must not consume the tournament's RNG stream: a nil driver and a
	// driver that only swaps strategies replay the identical random
	// sequence.
	RoundDriver RoundDriver
}

// RoundDriver is the perturbation hook called at the start of every
// tournament round; internal/dynamics implements it to schedule
// round-granular adversarial behavior.
type RoundDriver interface {
	BeginRound(round int, participants []*game.Player)
}

// Validate checks the tournament configuration.
func (c *Config) Validate() error {
	if c.Rounds <= 0 {
		return fmt.Errorf("tournament: rounds must be positive, got %d", c.Rounds)
	}
	if c.Mode.Name == "" {
		return fmt.Errorf("tournament: path mode not set")
	}
	return c.Game.Validate()
}

// Recorder extends the per-game recorder with environment boundaries so
// metrics can be kept per tournament environment.
type Recorder interface {
	game.Recorder
	// BeginEnvironment is called before the first tournament of each
	// environment in an evaluation pass.
	BeginEnvironment(index int, env Environment)
}

// Scratch holds the reusable per-tournament buffers of Play: the
// slot-indexed game.Board every round plays on and the gossip pool. One
// Scratch serves any number of sequential PlayWith calls (the evaluation
// scheme keeps a single Scratch across all tournaments of a generation);
// it must not be shared between goroutines.
type Scratch struct {
	board game.Board
	pool  []int
}

// PlayWith runs one tournament over the given participants: cfg.Rounds
// rounds, each participant sourcing exactly one packet per round (§4.4
// tournament scheme, steps 1–8). registry maps NodeID → player and must
// cover every participant (every reputation store is sized to it); gen
// supplies candidate routes; rec may be nil. sc is caller-owned scratch,
// ready to use at its zero value: with warm scratch, a full tournament
// performs zero heap allocations.
//
// The participants are seated on the scratch's game.Board: their
// counters about each other are gathered into a T×T matrix, every round
// is played on slot indices 0..T−1, and the matrix, the accounts and the
// stores are written back at the end, so reputation persists across
// tournaments exactly as §4.4 says.
func PlayWith(participants []*game.Player, registry []*game.Player, cfg *Config, gen *network.Generator, r *rng.Source, rec game.Recorder, sc *Scratch) {
	b := &sc.board
	b.Load(participants, len(registry))
	for round := 0; round < cfg.Rounds; round++ {
		if cfg.RoundDriver != nil {
			cfg.RoundDriver.BeginRound(round, participants)
			for i, p := range participants {
				b.Strat[i] = p.Strategy
			}
		}
		for src := range participants {
			// Step 2: random destination and intermediates (generator);
			// step 3: the best-reputation route (or a uniform pick under
			// the RandomPath ablation); steps 4–6: the game itself.
			paths := gen.Candidates(r, src, len(participants))
			if cfg.PathChoice == RandomPath {
				pick := r.Intn(len(paths))
				paths = paths[pick : pick+1]
			}
			b.Play(src, paths, r, &cfg.Game, rec)
		}
		if cfg.GossipInterval > 0 && (round+1)%cfg.GossipInterval == 0 {
			gossip(participants, cfg, r, sc)
		}
	}
	b.Save()
}

// gossip performs one round of second-hand reputation exchange on the
// board: each normal player merges the observations of one uniformly
// chosen other peer. The peer pool is the normal players plus any
// Byzantine gossip liars among the participants — liars share (inverted)
// data but never receive, and CSN neither share nor receive. With no liars
// present the pool is exactly the normal players, so the random draws
// replay the pre-adversary sequence bit for bit.
func gossip(participants []*game.Player, cfg *Config, r *rng.Source, sc *Scratch) {
	pool := sc.pool[:0]
	for i, p := range participants {
		if p.Type == game.Normal {
			pool = append(pool, i)
		}
	}
	receivers := len(pool)
	for i, p := range participants {
		if p.Adv == game.AdvLiar {
			pool = append(pool, i)
		}
	}
	sc.pool = pool
	if receivers == 0 || len(pool) < 2 {
		return
	}
	for _, dst := range pool[:receivers] {
		src := pool[r.Intn(len(pool))]
		for src == dst {
			src = pool[r.Intn(len(pool))]
		}
		sc.board.Rep.Merge(dst, src, cfg.GossipMinRate, cfg.GossipWeight, participants[src].Adv == game.AdvLiar)
	}
}
