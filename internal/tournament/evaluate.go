package tournament

import (
	"fmt"

	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/rng"
)

// EvalConfig parameterizes one evaluation pass over a population: the
// Fig 3 scheme, in which every normal player plays L times in each of a
// series of tournament environments.
type EvalConfig struct {
	TournamentSize int // T: players per tournament (paper: 50)
	PlaysPerEnv    int // L: times each normal player plays per environment (paper leaves it open; default 1)
	Environments   []Environment
	Tournament     Config
}

// Validate checks the evaluation configuration against a population of the
// given size.
func (c *EvalConfig) Validate(populationSize int) error {
	if c.TournamentSize < 2 {
		return fmt.Errorf("tournament: size %d too small", c.TournamentSize)
	}
	if c.PlaysPerEnv < 1 {
		return fmt.Errorf("tournament: plays per environment must be ≥ 1, got %d", c.PlaysPerEnv)
	}
	if len(c.Environments) == 0 {
		return fmt.Errorf("tournament: no environments")
	}
	for _, env := range c.Environments {
		if env.CSN < 0 || env.CSN >= c.TournamentSize {
			return fmt.Errorf("tournament: environment %s has %d CSN with size %d", env.Name, env.CSN, c.TournamentSize)
		}
		if normals := c.TournamentSize - env.CSN; normals > populationSize {
			return fmt.Errorf("tournament: environment %s needs %d normal players, population has %d", env.Name, normals, populationSize)
		}
	}
	return c.Tournament.Validate()
}

// MaxCSN returns the largest CSN count over the environments.
func (c *EvalConfig) MaxCSN() int {
	max := 0
	for _, env := range c.Environments {
		if env.CSN > max {
			max = env.CSN
		}
	}
	return max
}

// EvalState holds the reusable working set of an evaluation pass: play
// counters, the played/unplayed partition, sampling scratch, the
// participant roster, and the tournament Scratch. A zero EvalState is
// ready to use; one warmed by a first pass makes every later pass with
// the same shapes allocation-free, which is why the engine keeps one
// EvalState for the lifetime of a run. It must not be shared between
// goroutines.
type EvalState struct {
	plays        []int
	unplayed     []int
	played       []int
	pick         []int
	scratch      []int
	participants []*game.Player
	sc           Scratch
}

// EvaluateWithAdversaries runs the Fig 3 evaluation scheme for one
// generation:
//
//  1. Clear reputation memory and payoff accounts of every player.
//  2. For each environment i: repeatedly draw Pi = T−Si players uniformly
//     among those that have played fewer than L times (topping up from
//     already-played players when fewer than Pi remain), add Si CSN, and
//     play a tournament — until every normal player has played L times.
//
// Reputation memory deliberately persists across environments within the
// pass; only the generation boundary clears it (§4.4 step 1).
//
// normals is the evolving population; csn is a pool of at least MaxCSN()
// selfish players; registry maps NodeID → player for everyone. gen
// supplies candidate routes for the evaluation's path mode; rec may be
// nil. byz is a cohort of Byzantine adversaries (internal/dynamics), nil
// for none: unlike the per-environment CSN, the byz players take a seat
// in every tournament of every environment, shrinking the normal seats to
// T − Si − len(byz). All working buffers come from (and return to) the
// EvalState, so a warm state runs the whole pass without heap allocation.
func (es *EvalState) EvaluateWithAdversaries(normals, csn, byz []*game.Player, registry []*game.Player, cfg *EvalConfig, gen *network.Generator, r *rng.Source, rec Recorder) error {
	if err := cfg.Validate(len(normals)); err != nil {
		return err
	}
	if cfg.MaxCSN() > len(csn) {
		return fmt.Errorf("tournament: need %d CSN, pool has %d", cfg.MaxCSN(), len(csn))
	}
	if len(byz) > 0 {
		if seats := cfg.TournamentSize - cfg.MaxCSN() - len(byz); seats < 1 {
			return fmt.Errorf("tournament: %d adversaries plus %d CSN leave %d normal seats of %d",
				len(byz), cfg.MaxCSN(), seats, cfg.TournamentSize)
		}
	}

	// Step 1: clear all memories and accounts. Dense stores keep their
	// registry-sized capacity across generations, so a reset generation
	// replays over the same backing arrays with no reallocation.
	for _, p := range normals {
		p.ResetForGeneration()
	}
	for _, p := range csn {
		p.ResetForGeneration()
	}
	for _, p := range byz {
		p.ResetForGeneration()
	}

	if cap(es.plays) < len(normals) {
		es.plays = make([]int, len(normals))
		es.unplayed = make([]int, 0, len(normals))
		es.played = make([]int, 0, len(normals))
	}
	if cap(es.participants) < cfg.TournamentSize {
		es.participants = make([]*game.Player, 0, cfg.TournamentSize)
	}
	plays := es.plays[:len(normals)]
	unplayed, played := es.unplayed, es.played
	participants := es.participants
	pick, scratch := es.pick, es.scratch
	sc := &es.sc // shared per-tournament buffers for the whole pass

	for envIdx, env := range cfg.Environments {
		if rec != nil {
			rec.BeginEnvironment(envIdx, env)
		}
		pi := cfg.TournamentSize - env.CSN - len(byz)
		for i := range plays {
			plays[i] = 0
		}
		for {
			// Partition the population by whether it still owes plays.
			unplayed = unplayed[:0]
			played = played[:0]
			for i, n := range plays {
				if n < cfg.PlaysPerEnv {
					unplayed = append(unplayed, i)
				} else {
					played = append(played, i)
				}
			}
			if len(unplayed) == 0 {
				break
			}
			participants = participants[:0]
			if len(unplayed) >= pi {
				// Step 2: Pi uniform picks among the unplayed.
				if cap(pick) < pi {
					pick = make([]int, pi)
				}
				pick = pick[:pi]
				scratch = r.SampleWithoutReplacement(pick, unplayed, scratch)
				for _, idx := range pick {
					participants = append(participants, normals[idx])
					plays[idx]++
				}
			} else {
				// Fewer unplayed than seats: everyone unplayed joins, and
				// the remaining seats are filled by uniform picks among
				// the already-played (the paper leaves this unspecified;
				// extra plays add events, consistent with eq. 1).
				for _, idx := range unplayed {
					participants = append(participants, normals[idx])
					plays[idx]++
				}
				fill := pi - len(unplayed)
				if fill > len(played) {
					fill = len(played)
				}
				if fill > 0 {
					if cap(pick) < fill {
						pick = make([]int, fill)
					}
					pick = pick[:fill]
					scratch = r.SampleWithoutReplacement(pick, played, scratch)
					for _, idx := range pick {
						participants = append(participants, normals[idx])
						plays[idx]++
					}
				}
			}
			participants = append(participants, csn[:env.CSN]...)
			participants = append(participants, byz...)
			PlayWith(participants, registry, &cfg.Tournament, gen, r, rec, sc)
		}
	}
	// Return the (possibly grown) buffers to the state for the next pass.
	es.unplayed, es.played = unplayed, played
	es.pick, es.scratch = pick, scratch
	es.participants = participants[:0]
	return nil
}

// BuildRegistry creates a NodeID-indexed lookup slice covering the given
// players. IDs must be dense and unique; the function panics otherwise,
// since a malformed registry silently corrupts every game.
func BuildRegistry(groups ...[]*game.Player) []*game.Player {
	max := network.NodeID(-1)
	for _, g := range groups {
		for _, p := range g {
			if p.ID > max {
				max = p.ID
			}
		}
	}
	reg := make([]*game.Player, max+1)
	for _, g := range groups {
		for _, p := range g {
			if p.ID < 0 {
				panic(fmt.Sprintf("tournament: negative NodeID %d", p.ID))
			}
			if reg[p.ID] != nil {
				panic(fmt.Sprintf("tournament: duplicate NodeID %d", p.ID))
			}
			reg[p.ID] = p
		}
	}
	return reg
}
