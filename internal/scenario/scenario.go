// Package scenario defines the declarative, JSON-serializable description
// of an evolutionary experiment: which tournament environments to expose
// the population to, the path mode, tournament and GA parameters, the
// computational scale, and the seed policy. A Spec is the unit the shared
// work runner (internal/runner, via internal/experiment) schedules — every
// workload, from the paper's four Table 4 cases to user-authored JSON
// files, flattens to (Spec × replicate) work units.
//
// A Spec only pins what it cares about: zero-valued fields fall back to
// the paper's §6.1 parameterization and to the Scale the run was invoked
// at, so a minimal spec is just a name and an environment list. An
// optional islands block routes the scenario through the island-model
// engine (internal/island) instead of the serial one. The registry
// (registry.go) provides named families of ready-made specs beyond the
// paper's evaluation — dense CSN×path-mode grids, tournament-size
// sweeps, mixed-environment scenarios, and island-model variants.
package scenario

import (
	"fmt"

	"adhocga/internal/core"
	"adhocga/internal/dynamics"
	"adhocga/internal/ga"
	"adhocga/internal/island"
	"adhocga/internal/network"
	"adhocga/internal/tournament"
)

// Scale selects how much of the paper's computational budget to spend; it
// supplies the defaults for every Spec field it shares. The experiment
// package defines the standard presets (smoke, default, paper).
type Scale struct {
	Name        string
	Generations int
	Rounds      int
	Repetitions int
}

// EnvSpec is one tournament environment: a display name and the number of
// constantly selfish nodes among the participants. An empty name defaults
// to "CSN<n>".
type EnvSpec struct {
	Name string `json:"name,omitempty"`
	CSN  int    `json:"csn"`
}

// IslandSpec configures the island-model evolution engine
// (internal/island): the population is sharded into Count subpopulations
// evolved concurrently, with Migrants elite genomes exchanged over the
// Topology every Interval generations. Zero-valued fields keep the island
// defaults (ring topology, interval 10, 1 migrant, worst-replacement). The
// population must divide evenly by Count, and each island's share must
// still accommodate the tournament size.
type IslandSpec struct {
	// Count is the number of islands; 1 degenerates to the serial engine
	// bit for bit.
	Count int `json:"count"`
	// Topology is "ring" (default), "full", or "random-pairs".
	Topology string `json:"topology,omitempty"`
	// Interval is the number of generations between migration barriers
	// (default 10).
	Interval int `json:"interval,omitempty"`
	// Migrants is the number of elite genomes sent along each topology
	// edge per barrier (default 1).
	Migrants int `json:"migrants,omitempty"`
	// Replace is "worst" (default) or "random": which residents incoming
	// migrants evict.
	Replace string `json:"replace,omitempty"`
}

// DynamicsSpec configures the environment-perturbation layer
// (internal/dynamics): churn with random immigrants and identity
// turnover, route-length landscape drift under mobility, and a Byzantine
// adversary cohort. Zero-valued tuning fields keep the dynamics defaults
// (barriers every generation, 1.5× identity headroom, 0.25 rewire step,
// 20/10 on-off schedule); an absent block disables the layer entirely and
// keeps runs bit-identical to the static reproduction.
type DynamicsSpec struct {
	// Interval is the number of generations between perturbation barriers
	// (default 1).
	Interval int `json:"interval,omitempty"`
	// ChurnRate is the population fraction replaced by naive immigrants
	// with fresh identities per barrier, in [0,1].
	ChurnRate float64 `json:"churn_rate,omitempty"`
	// IDHeadroom bounds identity-space growth before IDs recycle
	// (default 1.5).
	IDHeadroom float64 `json:"id_headroom,omitempty"`
	// RewireProb and RewireStep drive the seeded SP↔LP route-length walk
	// modeling link rewiring under mobility.
	RewireProb float64 `json:"rewire_prob,omitempty"`
	RewireStep float64 `json:"rewire_step,omitempty"`
	// FreeRiders, Liars and OnOff size the Byzantine cohort seated in
	// every tournament.
	FreeRiders int `json:"free_riders,omitempty"`
	Liars      int `json:"liars,omitempty"`
	OnOff      int `json:"on_off,omitempty"`
	// OnRounds/OffRounds schedule the on-off attack (defaults 20/10).
	OnRounds  int `json:"on_rounds,omitempty"`
	OffRounds int `json:"off_rounds,omitempty"`
}

// Config converts the spec to the engine-level dynamics configuration.
func (d *DynamicsSpec) Config() *dynamics.Config {
	if d == nil {
		return nil
	}
	return &dynamics.Config{
		Interval:   d.Interval,
		ChurnRate:  d.ChurnRate,
		IDHeadroom: d.IDHeadroom,
		RewireProb: d.RewireProb,
		RewireStep: d.RewireStep,
		FreeRiders: d.FreeRiders,
		Liars:      d.Liars,
		OnOff:      d.OnOff,
		OnRounds:   d.OnRounds,
		OffRounds:  d.OffRounds,
	}
}

// AdversaryCount returns the total Byzantine cohort the spec seats.
func (d *DynamicsSpec) AdversaryCount() int {
	if d == nil {
		return 0
	}
	return d.FreeRiders + d.Liars + d.OnOff
}

// GossipSpec enables CORE-style second-hand reputation exchange in the
// tournaments: every Interval rounds each normal player imports one random
// peer's positive observations. It matters mostly for adversarial
// scenarios — gossip liars can only lie when gossip runs. Weight defaults
// to 0.25 and MinRate to 0.5 when left zero.
type GossipSpec struct {
	Interval int     `json:"interval"`
	Weight   float64 `json:"weight,omitempty"`
	MinRate  float64 `json:"min_rate,omitempty"`
}

// GASpec overrides genetic-algorithm parameters. Zero/nil fields keep the
// paper's §6.1 values (binary tournament selection, one-point crossover
// with probability 0.9, per-bit mutation 0.001, no elitism).
type GASpec struct {
	// SelectionTournament is the k of k-way tournament selection.
	SelectionTournament int `json:"selection_tournament,omitempty"`
	// CrossoverProb and MutationProb are pointers so an explicit zero is
	// distinguishable from "keep the paper's value".
	CrossoverProb *float64 `json:"crossover_prob,omitempty"`
	MutationProb  *float64 `json:"mutation_prob,omitempty"`
	Elitism       int      `json:"elitism,omitempty"`
}

// Spec declaratively describes one evolutionary experiment. The zero value
// of every field except Name and Environments means "use the default":
// path mode SP, the paper's tournament and GA parameters, and the scale of
// the enclosing run.
type Spec struct {
	// ID is an optional numeric tag carried through to reports (the
	// paper's Table 4 cases use 1–4).
	ID   int    `json:"id,omitempty"`
	Name string `json:"name"`
	// Environments lists the tournament environments each generation is
	// evaluated in (Fig 3 scheme).
	Environments []EnvSpec `json:"environments"`
	// PathMode is "SP" (shorter paths, the default) or "LP" (longer paths).
	PathMode string `json:"path_mode,omitempty"`
	// TournamentSize is the paper's T (default 50).
	TournamentSize int `json:"tournament_size,omitempty"`
	// Rounds is the paper's R, rounds per tournament (default: the scale's).
	Rounds int `json:"rounds,omitempty"`
	// PlaysPerEnv is the paper's L, plays per environment (default 2).
	PlaysPerEnv int `json:"plays_per_env,omitempty"`
	// Population is the paper's N, evolving strategies (default 100).
	Population int `json:"population,omitempty"`
	// Generations and Repetitions default to the scale's.
	Generations int `json:"generations,omitempty"`
	Repetitions int `json:"repetitions,omitempty"`
	// Seed, when nonzero, pins this scenario's master seed regardless of
	// the seed the run was invoked with; replicate seeds are always
	// derived from the master by splitting, never used directly.
	Seed uint64 `json:"seed,omitempty"`
	// Checkpoints, when positive, extracts a hall-of-fame champion every
	// Checkpoints generations (and at the final one) for the league
	// archive. Purely observational: it never changes results.
	Checkpoints int `json:"checkpoints,omitempty"`
	// GA overrides the genetic-algorithm parameters.
	GA *GASpec `json:"ga,omitempty"`
	// Islands, when set, runs the scenario on the island-model engine
	// instead of the serial one.
	Islands *IslandSpec `json:"islands,omitempty"`
	// Dynamics, when set, enables the environment-perturbation layer
	// (churn, landscape rewiring, Byzantine adversaries).
	Dynamics *DynamicsSpec `json:"dynamics,omitempty"`
	// Gossip, when set, enables second-hand reputation exchange.
	Gossip *GossipSpec `json:"gossip,omitempty"`
}

// Validate checks the spec's structural invariants. Parameter interactions
// (e.g. tournament size vs population) are checked when the spec is built
// into a core.Config.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	if len(s.Environments) == 0 {
		return fmt.Errorf("scenario %q: no environments", s.Name)
	}
	for _, env := range s.Environments {
		if env.CSN < 0 {
			return fmt.Errorf("scenario %q: environment %q has negative CSN", s.Name, env.Name)
		}
	}
	if _, err := s.Mode(); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"tournament_size", s.TournamentSize},
		{"rounds", s.Rounds},
		{"plays_per_env", s.PlaysPerEnv},
		{"population", s.Population},
		{"generations", s.Generations},
		{"repetitions", s.Repetitions},
		{"checkpoints", s.Checkpoints},
	} {
		if f.v < 0 {
			return fmt.Errorf("scenario %q: negative %s", s.Name, f.name)
		}
	}
	if s.GA != nil {
		if p := s.GA.CrossoverProb; p != nil && (*p < 0 || *p > 1) {
			return fmt.Errorf("scenario %q: crossover_prob %v outside [0,1]", s.Name, *p)
		}
		if p := s.GA.MutationProb; p != nil && (*p < 0 || *p > 1) {
			return fmt.Errorf("scenario %q: mutation_prob %v outside [0,1]", s.Name, *p)
		}
		if s.GA.SelectionTournament < 0 || s.GA.Elitism < 0 {
			return fmt.Errorf("scenario %q: negative GA parameter", s.Name)
		}
	}
	if d := s.Dynamics; d != nil {
		if err := d.Config().Validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		// Liars only misbehave through gossip (inverted merges); without a
		// gossip channel they would sit in every tournament as extra
		// always-forwarders, silently *helping* cooperation while being
		// reported as adversaries.
		if d.Liars > 0 && (s.Gossip == nil || s.Gossip.Interval < 1) {
			return fmt.Errorf("scenario %q: %d gossip liars but gossip is disabled — add a gossip block (liars attack through it)", s.Name, d.Liars)
		}
	}
	if g := s.Gossip; g != nil {
		if g.Interval < 0 {
			return fmt.Errorf("scenario %q: negative gossip interval", s.Name)
		}
		if g.Weight < 0 || g.Weight > 1 {
			return fmt.Errorf("scenario %q: gossip weight %v outside [0,1]", s.Name, g.Weight)
		}
		if g.MinRate < 0 || g.MinRate > 1 {
			return fmt.Errorf("scenario %q: gossip min_rate %v outside [0,1]", s.Name, g.MinRate)
		}
	}
	if isl := s.Islands; isl != nil {
		if isl.Count < 1 {
			return fmt.Errorf("scenario %q: island count %d < 1", s.Name, isl.Count)
		}
		if _, err := island.ParseTopology(isl.Topology); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		if _, err := island.ParseReplacement(isl.Replace); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		if isl.Interval < 0 || isl.Migrants < 0 {
			return fmt.Errorf("scenario %q: negative island parameter", s.Name)
		}
	}
	return nil
}

// Mode resolves the spec's path mode; empty means shorter paths.
func (s Spec) Mode() (network.PathMode, error) {
	mode, err := network.ModeByName(s.PathMode)
	if err != nil {
		return mode, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return mode, nil
}

// Envs converts the environment list to the tournament package's form,
// filling in default names.
func (s Spec) Envs() []tournament.Environment {
	envs := make([]tournament.Environment, len(s.Environments))
	for i, e := range s.Environments {
		name := e.Name
		if name == "" {
			name = fmt.Sprintf("CSN%d", e.CSN)
		}
		envs[i] = tournament.Environment{Name: name, CSN: e.CSN}
	}
	return envs
}

// Resolve fills the spec's zero-valued scale fields from sc and returns
// the completed copy. The spec wins wherever it pins a value.
func (s Spec) Resolve(sc Scale) Spec {
	if s.Generations == 0 {
		s.Generations = sc.Generations
	}
	if s.Rounds == 0 {
		s.Rounds = sc.Rounds
	}
	if s.Repetitions == 0 {
		s.Repetitions = sc.Repetitions
	}
	return s
}

// MasterSeed resolves the scenario's master seed: its own pinned Seed if
// set, otherwise the fallback from the run invocation.
func (s Spec) MasterSeed(fallback uint64) uint64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return fallback
}

// Config builds the core configuration for one replicate with the given
// replicate seed. It starts from the paper's §6.1 parameterization and
// applies only the overrides the spec pins, so a default spec replays the
// paper exactly. Call Resolve first if the spec leaves scale fields to the
// enclosing run.
func (s Spec) Config(seed uint64) (core.Config, error) {
	mode, err := s.Mode()
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.PaperConfig(s.Envs(), mode, seed)
	cfg.Generations = s.Generations
	cfg.Eval.Tournament.Rounds = s.Rounds
	cfg.CheckpointInterval = s.Checkpoints
	if s.Population > 0 {
		cfg.PopulationSize = s.Population
	}
	if s.TournamentSize > 0 {
		cfg.Eval.TournamentSize = s.TournamentSize
	}
	if s.PlaysPerEnv > 0 {
		cfg.Eval.PlaysPerEnv = s.PlaysPerEnv
	}
	if s.GA != nil {
		if s.GA.SelectionTournament > 0 {
			cfg.GA.Selector = ga.TournamentSelector{Size: s.GA.SelectionTournament}
		}
		if s.GA.CrossoverProb != nil {
			cfg.GA.CrossoverProb = *s.GA.CrossoverProb
		}
		if s.GA.MutationProb != nil {
			cfg.GA.MutationProb = *s.GA.MutationProb
		}
		if s.GA.Elitism > 0 {
			cfg.GA.Elitism = s.GA.Elitism
		}
	}
	cfg.Dynamics = s.Dynamics.Config()
	if g := s.Gossip; g != nil && g.Interval > 0 {
		cfg.Eval.Tournament.GossipInterval = g.Interval
		cfg.Eval.Tournament.GossipWeight = g.Weight
		if g.Weight == 0 {
			cfg.Eval.Tournament.GossipWeight = 0.25
		}
		cfg.Eval.Tournament.GossipMinRate = g.MinRate
		if g.MinRate == 0 {
			cfg.Eval.Tournament.GossipMinRate = 0.5
		}
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return cfg, nil
}

// IslandConfig builds the island-model configuration for one replicate
// with the given replicate seed. A spec without an islands block resolves
// to a single island, which the engine runs bit-identically to the serial
// path. Population division and per-island tournament feasibility are
// checked here, so a bad islands block fails before any compute is spent.
func (s Spec) IslandConfig(seed uint64) (island.Config, error) {
	cfg, err := s.Config(seed)
	if err != nil {
		return island.Config{}, err
	}
	isl := s.Islands
	if isl == nil {
		isl = &IslandSpec{Count: 1}
	}
	icfg := island.Config{
		Core:     cfg,
		Count:    isl.Count,
		Topology: island.Topology(isl.Topology),
		Interval: isl.Interval,
		Migrants: isl.Migrants,
		Replace:  island.Replacement(isl.Replace),
	}
	if err := icfg.Validate(); err != nil {
		return island.Config{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return icfg, nil
}
