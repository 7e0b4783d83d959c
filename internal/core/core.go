// Package core implements the paper's primary contribution: the evolution
// of strategy-driven forwarding behavior. It couples the game-theoretic
// evaluation machinery (internal/tournament) with the genetic algorithm
// (internal/ga) into the generational loop of §5:
//
//	random strategies → evaluate in tournament environments → fitness by
//	eq. 1 → tournament selection + one-point crossover + bit-flip
//	mutation → next generation, repeated for a fixed number of
//	generations.
//
// The Engine reports per-generation observables (cooperation level,
// fitness moments, diversity) through a hook and returns the full history
// plus the final strategy population, which the experiment harness turns
// into the paper's figures and tables.
package core

import (
	"context"
	"fmt"

	"adhocga/internal/bitstring"
	"adhocga/internal/dynamics"
	"adhocga/internal/ga"
	"adhocga/internal/game"
	"adhocga/internal/metrics"
	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
	"adhocga/internal/tournament"
)

// Config parameterizes one evolutionary run.
type Config struct {
	PopulationSize int    // N: number of normal players / strategies (paper: 100)
	Generations    int    // paper: 500
	Seed           uint64 // master seed; identical configs+seeds replay exactly
	Eval           tournament.EvalConfig
	GA             ga.Config

	// Dynamics, when non-nil and enabled, perturbs the network and
	// population at generation barriers (internal/dynamics): churn with
	// random immigrants and identity turnover, route-length landscape
	// drift, and a Byzantine adversary cohort in every tournament. The
	// perturbation stream is split from Seed before any evaluation
	// randomness, so a nil or disabled Dynamics is bit-identical to a
	// build without the layer.
	Dynamics *dynamics.Config

	// OnGeneration, when non-nil, receives each generation's snapshot
	// right after evaluation (before reproduction).
	OnGeneration func(GenerationStats)

	// OnChurn, when non-nil, is called after every dynamics barrier that
	// actually fired (churn and/or landscape rewiring), with the index of
	// the generation whose reproduction the barrier followed. It is purely
	// observational — the hook never consumes engine randomness — so
	// setting it cannot change results.
	OnChurn func(generation int)

	// CheckpointInterval and OnCheckpoint extract hall-of-fame champions:
	// when both are set (interval > 0, hook non-nil), the hook receives a
	// Checkpoint right after the evaluation of every CheckpointInterval-th
	// generation (0, interval, 2·interval, …) and always of the final one.
	// Like OnChurn it is purely observational — the hook never consumes
	// engine randomness and the champion genome is deep-copied — so
	// enabling checkpoints cannot change results.
	CheckpointInterval int
	OnCheckpoint       func(Checkpoint)

	// Constraint, when non-nil, is applied in place to every genome as it
	// enters the population (initialization and reproduction). It
	// restricts the search space for ablations — e.g. forcing the three
	// activity bits of each trust level to agree turns the 13-bit
	// strategy into a 5-bit trust-only strategy.
	Constraint func(bitstring.Bits)
}

// TrustOnlyConstraint collapses the activity dimension: within each trust
// level, the MI and HI bits are overwritten by the LO bit, making the
// strategy depend on trust alone. Used by the A2 ablation benchmark to
// measure what the activity levels of §3.2 contribute.
func TrustOnlyConstraint(b bitstring.Bits) {
	for t := 0; t < strategy.NumTrustLevels; t++ {
		base := b.Get(t * strategy.NumActivityLevels)
		for a := 1; a < strategy.NumActivityLevels; a++ {
			b.Set(t*strategy.NumActivityLevels+a, base)
		}
	}
}

// PaperConfig returns the full §6.1 parameterization for the given
// environments and path mode: N=100, T=50, R=300, 500 generations, GA
// probabilities 0.9/0.001. Callers scale Generations and Rounds down for
// quick runs.
//
// PlaysPerEnv (the paper's unspecified L) defaults to 2: calibration showed
// that with L=1 a sizable fraction of longer-path replicates collapse to
// all-defection instead of reaching the cooperative quasi-equilibrium the
// paper reports, while with L=2 every replicate reproduces the paper's
// Table 5 values (reproduction_test.go pins the shape).
func PaperConfig(envs []tournament.Environment, mode network.PathMode, seed uint64) Config {
	return Config{
		PopulationSize: 100,
		Generations:    500,
		Seed:           seed,
		Eval: tournament.EvalConfig{
			TournamentSize: 50,
			PlaysPerEnv:    2,
			Environments:   envs,
			Tournament: tournament.Config{
				Rounds: 300,
				Mode:   mode,
				Game:   game.DefaultConfig(),
			},
		},
		GA: ga.PaperConfig(),
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.PopulationSize < 2 {
		return fmt.Errorf("core: population size %d too small", c.PopulationSize)
	}
	if c.Generations < 1 {
		return fmt.Errorf("core: generations %d too small", c.Generations)
	}
	if err := c.Eval.Validate(c.PopulationSize); err != nil {
		return err
	}
	if c.Dynamics != nil {
		if err := c.Dynamics.Validate(); err != nil {
			return err
		}
		if adv := c.Dynamics.AdversaryCount(); adv > 0 {
			if seats := c.Eval.TournamentSize - c.Eval.MaxCSN() - adv; seats < 1 {
				return fmt.Errorf("core: %d adversaries plus %d CSN leave %d normal seats of %d",
					adv, c.Eval.MaxCSN(), seats, c.Eval.TournamentSize)
			}
		}
		// Liars attack exclusively through gossip; without it they are
		// inert always-forwarders masquerading as adversaries.
		if c.Dynamics.Liars > 0 && c.Eval.Tournament.GossipInterval < 1 {
			return fmt.Errorf("core: %d gossip liars but gossip is disabled (set Eval.Tournament.GossipInterval)", c.Dynamics.Liars)
		}
	}
	return c.GA.Validate()
}

// GenerationStats is the per-generation snapshot handed to OnGeneration
// and accumulated into the run history.
type GenerationStats struct {
	Generation int
	// Cooperation is the overall cooperation level of the generation:
	// delivered / originated over all normal-sourced games (§6.2).
	Cooperation float64
	// CoopPerEnv is the cooperation level measured independently per
	// tournament environment (Table 5).
	CoopPerEnv []float64
	// MeanEnvCooperation is the unweighted mean of CoopPerEnv, the Fig 4
	// summary number for multi-environment cases.
	MeanEnvCooperation float64
	Fitness            ga.PopulationStats
}

// Checkpoint is the observational champion snapshot handed to
// OnCheckpoint: the best-fitness individual of a just-evaluated
// generation, deep-copied so it stays valid after the engine evolves on
// or is reinitialized for another job.
type Checkpoint struct {
	Generation  int
	Best        strategy.Strategy
	Fitness     float64
	MeanFitness float64
	Cooperation float64
}

// CheckpointDue reports whether a run of the given length fires a
// checkpoint at generation gen under the given interval: every
// interval-th generation plus the final one. Interval <= 0 disables
// checkpoints entirely.
func CheckpointDue(gen, interval, generations int) bool {
	if interval <= 0 {
		return false
	}
	return gen%interval == 0 || gen == generations-1
}

// Result is the outcome of a run.
type Result struct {
	// CoopSeries has one overall cooperation level per generation — the
	// data behind one Fig 4 curve.
	CoopSeries []float64
	// MeanEnvCoopSeries is the per-generation unweighted environment mean.
	MeanEnvCoopSeries []float64
	// CoopPerEnvSeries[e][g] is environment e's cooperation level at
	// generation g (Table 5's per-environment view over time).
	CoopPerEnvSeries [][]float64
	// FinalStrategies is the last generation's strategy population
	// (Tables 7–9 are censuses of these across repetitions).
	FinalStrategies []strategy.Strategy
	// FinalCollector holds the last generation's full metrics (Tables 5–6).
	FinalCollector *metrics.Collector
	// FinalFitness is the last generation's population statistics.
	FinalFitness ga.PopulationStats
}

// Engine runs the evolutionary loop. Create with New; each Engine is
// single-goroutine (parallelism happens one level up, across replicate
// runs with split RNG streams).
type Engine struct {
	cfg      Config
	r        *rng.Source
	normals  []*game.Player
	csn      []*game.Player
	byz      []*game.Player // Byzantine cohort; empty without dynamics
	registry []*game.Player
	gen      *network.Generator
	genomes  []ga.Individual

	// dyn is the perturbation model (nil when dynamics are disabled);
	// reproductions counts Reproduce calls to phase its barriers.
	dyn           *dynamics.Model
	reproductions int

	// es holds the evaluation pass's working buffers across generations;
	// after the first generation warms it, EvaluateGeneration runs
	// allocation-free.
	es tournament.EvalState

	// repro is the double-buffered offspring arena: Reproduce writes each
	// new generation into repro[reproParity] while reading parents from
	// the other buffer (or from init/immigrant vectors), then flips the
	// parity. Two buffers suffice because strategies are reinstalled from
	// the live genomes at the start of every EvaluateGeneration, before
	// the buffer they previously shared is ever rewritten. reproParity is
	// deliberately NOT reset by Reinit: the live genomes stay inside the
	// buffer they were written to, and the next Reproduce must keep
	// targeting the other one.
	repro       [2]ga.Buffers
	reproParity int
}

// New validates the configuration and builds an Engine with a random
// initial population.
func New(cfg Config) (*Engine, error) {
	e := &Engine{}
	if err := e.Reinit(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// Reinit rebuilds the engine in place for a fresh run of cfg — the arena
// reuse primitive behind session job pooling. It is exactly equivalent to
// New(cfg): the same draw sequence from the same seed, so a reinitialized
// engine replays a fresh one bit for bit. The difference is purely
// allocation: genomes are re-randomized in place, players keep their dense
// reputation stores (reset rather than rebuilt), and the evaluation pass's
// warm working buffers survive, so reinitializing for a same-shaped config
// costs a handful of small allocations instead of rebuilding the whole
// working set. Results obtained from earlier runs stay valid: everything
// they carry is either freshly allocated per run or deep-copied
// (SnapshotStrategies).
func (e *Engine) Reinit(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	e.cfg = cfg
	if e.r == nil {
		e.r = rng.New(cfg.Seed)
	} else {
		e.r.Reseed(cfg.Seed)
	}
	if e.gen == nil {
		e.gen = network.NewGenerator(cfg.Eval.Tournament.Mode)
	} else {
		e.gen.SetMode(cfg.Eval.Tournament.Mode)
	}
	e.dyn = nil
	e.byz = nil
	e.reproductions = 0

	n := cfg.PopulationSize
	if cap(e.normals) < n {
		grown := make([]*game.Player, n)
		copy(grown, e.normals)
		e.normals = grown
	}
	e.normals = e.normals[:n]
	if cap(e.genomes) < n {
		grown := make([]ga.Individual, n)
		copy(grown, e.genomes)
		e.genomes = grown
	}
	e.genomes = e.genomes[:n]
	for i := 0; i < n; i++ {
		g := e.genomes[i].Genome
		if g.Len() != strategy.Bits {
			g = bitstring.New(strategy.Bits)
		}
		// Identical draws to strategy.Random: one engine word per genome.
		g.FillRandom(e.r)
		if cfg.Constraint != nil {
			cfg.Constraint(g)
		}
		e.genomes[i] = ga.Individual{Genome: g}
		if p := e.normals[i]; p != nil {
			p.ID = network.NodeID(i)
			p.Type = game.Normal
			p.Adv = game.AdvNone
			p.Strategy = strategy.New(g)
			p.ResetForGeneration()
		} else {
			e.normals[i] = game.NewNormal(network.NodeID(i), strategy.New(g))
		}
	}
	maxCSN := cfg.Eval.MaxCSN()
	if cap(e.csn) < maxCSN {
		grown := make([]*game.Player, maxCSN)
		copy(grown, e.csn)
		e.csn = grown
	}
	e.csn = e.csn[:maxCSN]
	for i := 0; i < maxCSN; i++ {
		id := network.NodeID(n + i)
		if p := e.csn[i]; p != nil {
			p.ID = id
			p.Type = game.Selfish
			p.Adv = game.AdvNone
			p.Strategy = strategy.AllDiscard()
			p.ResetForGeneration()
		} else {
			e.csn[i] = game.NewSelfish(id)
		}
	}
	if cfg.Dynamics != nil && cfg.Dynamics.Enabled() {
		// The perturbation stream is split from the root seed through a
		// throwaway source so the engine's own stream (e.r) is untouched:
		// with dynamics disabled the evaluation replay is bit-identical.
		//
		// The rewiring walk starts at the configured base mode's position
		// on the SP↔LP axis; custom modes (whose position the name cannot
		// reveal) seed at the SP end.
		alpha, _ := network.ModeAlpha(cfg.Eval.Tournament.Mode)
		ids := cfg.PopulationSize + maxCSN + cfg.Dynamics.AdversaryCount()
		dyn, err := dynamics.NewModel(*cfg.Dynamics, rng.New(cfg.Seed).Split(), ids, alpha)
		if err != nil {
			return err
		}
		e.dyn = dyn
		e.byz = dyn.NewAdversaries(network.NodeID(cfg.PopulationSize + maxCSN))
		if cfg.Dynamics.OnOff > 0 {
			e.cfg.Eval.Tournament.RoundDriver = dyn
		}
	}
	e.registry = tournament.BuildRegistry(e.normals, e.csn, e.byz)
	// Pre-size every dense reputation store to the registry and install
	// the configured trust table, so the generational loop never grows a
	// store or recomputes cached levels mid-run.
	table := cfg.Eval.Tournament.Game.TrustTable
	for _, p := range e.registry {
		p.Rep.EnsureSize(len(e.registry))
		p.Rep.SetTable(table)
	}
	return nil
}

// NewResult returns a Result with series storage sized for the given
// generation and environment counts. Engine.Run builds its own; the island
// engine (internal/island) uses it to accumulate the aggregate view of a
// sharded run in exactly the serial shape.
//
// The up-front capacity is capped at maxPresizedGenerations: the
// generation count comes from the request, and a run cancelled long
// before its nominal end must not have reserved memory for all of it.
// Longer runs grow their series with progress.
func NewResult(generations, envs int) *Result {
	generations = min(generations, maxPresizedGenerations)
	return &Result{
		CoopSeries:        make([]float64, 0, generations),
		MeanEnvCoopSeries: make([]float64, 0, generations),
		CoopPerEnvSeries:  make([][]float64, envs),
	}
}

// maxPresizedGenerations bounds the series capacity NewResult reserves:
// 64 KiB per series, well past the paper's 500 generations.
const maxPresizedGenerations = 8192

// Record appends one generation's cooperation observables from the
// collector to the result's series. Environments beyond the result's
// preallocated width are dropped; missing ones record zero. It reads the
// collector's environment view directly (no per-call slice), so recording
// into pre-sized series allocates only on series growth.
func (r *Result) Record(c *metrics.Collector) {
	envs := c.Environments()
	r.CoopSeries = append(r.CoopSeries, c.CooperationLevel())
	r.MeanEnvCoopSeries = append(r.MeanEnvCoopSeries, c.MeanEnvCooperation())
	for ei := range r.CoopPerEnvSeries {
		v := 0.0
		if ei < len(envs) {
			v = envs[ei].CooperationLevel()
		}
		r.CoopPerEnvSeries[ei] = append(r.CoopPerEnvSeries[ei], v)
	}
}

// EvaluateGeneration runs the evaluation half of one generation (§4.4
// step 1–2, Fig 3): install the current genomes as strategies, reset the
// collector, play every tournament of the evaluation pass, and assign each
// individual its eq. 1 fitness. It consumes the engine's RNG stream exactly
// as the serial loop does; callers that interleave work between generations
// (the island engine's migration barriers) must not touch the stream.
func (e *Engine) EvaluateGeneration(collector *metrics.Collector) error {
	// The installed strategies share the genome vectors (no clone): the
	// evaluation pass never writes genomes, Reproduce writes only the
	// opposite arena buffer, and this reinstall runs before that buffer
	// ever comes around again — so the bits a strategy reads are immutable
	// for exactly as long as the strategy is installed. Snapshots that
	// outlive the engine deep-copy (SnapshotStrategies).
	for i, ind := range e.genomes {
		e.normals[i].Strategy = strategy.New(ind.Genome)
	}
	collector.Reset()
	if err := e.es.EvaluateWithAdversaries(e.normals, e.csn, e.byz, e.registry, &e.cfg.Eval, e.gen, e.r, collector); err != nil {
		return err
	}
	// Fitness by eq. 1.
	for i := range e.genomes {
		e.genomes[i].Fitness = e.normals[i].Acct.Fitness()
	}
	return nil
}

// Reproduce replaces the population with the next generation by the §5
// scheme (selection, crossover, mutation), applying the configured
// constraint to every offspring. When dynamics are enabled, the
// perturbation barrier fires here after reproduction — churn replaces a
// seeded fraction of the offspring with naive immigrants under fresh
// identities, and the rewiring walk may shift the route-length landscape
// for the coming generations.
func (e *Engine) Reproduce() error {
	next, err := ga.NextGenerationInto(e.genomes, &e.cfg.GA, e.r, &e.repro[e.reproParity])
	if err != nil {
		return err
	}
	e.reproParity = 1 - e.reproParity
	for i := range e.genomes {
		if e.cfg.Constraint != nil {
			e.cfg.Constraint(next[i])
		}
		e.genomes[i] = ga.Individual{Genome: next[i]}
	}
	gen := e.reproductions
	e.reproductions++
	if e.dyn != nil && e.dyn.Barrier(gen) {
		e.dyn.Churn(e.genomes, e.normals, &e.registry, e.cfg.Constraint)
		if e.dyn.Rewire() {
			e.gen.SetMode(e.dyn.PathMode())
		}
		if e.cfg.OnChurn != nil {
			e.cfg.OnChurn(gen)
		}
	}
	return nil
}

// Dynamics returns the engine's perturbation model, or nil when dynamics
// are disabled. Exposed for reporting (churn/rewire counters, current
// route-length mix); callers must not drive the model themselves.
func (e *Engine) Dynamics() *dynamics.Model { return e.dyn }

// Population returns the engine's live individuals. Between
// EvaluateGeneration and Reproduce each entry carries the fitness just
// measured; the island engine overwrites entries in place to apply
// migration. The slice header must not be resized or retained across
// generations.
func (e *Engine) Population() []ga.Individual { return e.genomes }

// SnapshotStrategies returns the strategies installed by the most recent
// EvaluateGeneration, one per individual in population order. Each entry
// is backed by its own genome copy, so snapshots stay valid after the
// engine evolves further or is reinitialized for another job.
func (e *Engine) SnapshotStrategies() []strategy.Strategy {
	out := make([]strategy.Strategy, len(e.normals))
	for i, p := range e.normals {
		out[i] = strategy.New(p.Strategy.Genome())
	}
	return out
}

// Config returns the engine's validated configuration.
func (e *Engine) Config() Config { return e.cfg }

// Run executes the configured number of generations and returns the run
// history. It is deterministic for a given Config (including Seed).
func (e *Engine) Run() (*Result, error) {
	return e.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation. The context is checked
// once per generation, at the barrier before evaluation — never inside a
// generation — so an uncancelled run consumes the RNG stream exactly as
// Run does and stays bit-identical to it.
//
// On cancellation the partial Result recorded so far is returned together
// with an error wrapping ctx.Err(): the cooperation series covers every
// completed generation, while the Final* views stay unset (FinalCollector
// is nil) because the population has already been reproduced past the
// last evaluated generation. Callers distinguish interruption from
// failure with errors.Is(err, context.Canceled).
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	res := NewResult(e.cfg.Generations, len(e.cfg.Eval.Environments))
	collector := metrics.NewCollector()

	for gen := 0; gen < e.cfg.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("core: interrupted before generation %d: %w", gen, err)
		}
		if err := e.EvaluateGeneration(collector); err != nil {
			return nil, fmt.Errorf("core: generation %d: %w", gen, err)
		}
		fitStats := ga.Stats(e.genomes)

		res.Record(collector)

		if e.cfg.OnGeneration != nil {
			e.cfg.OnGeneration(GenerationStats{
				Generation:         gen,
				Cooperation:        collector.CooperationLevel(),
				CoopPerEnv:         collector.CooperationPerEnv(),
				MeanEnvCooperation: collector.MeanEnvCooperation(),
				Fitness:            fitStats,
			})
		}

		if e.cfg.OnCheckpoint != nil && CheckpointDue(gen, e.cfg.CheckpointInterval, e.cfg.Generations) {
			best := e.genomes[fitStats.BestIndex]
			e.cfg.OnCheckpoint(Checkpoint{
				Generation:  gen,
				Best:        strategy.New(best.Genome.Clone()),
				Fitness:     best.Fitness,
				MeanFitness: fitStats.MeanFitness,
				Cooperation: collector.CooperationLevel(),
			})
		}

		if gen == e.cfg.Generations-1 {
			res.FinalStrategies = e.SnapshotStrategies()
			res.FinalCollector = collector
			res.FinalFitness = fitStats
			break
		}

		// Reproduction (§5).
		if err := e.Reproduce(); err != nil {
			return nil, fmt.Errorf("core: generation %d reproduction: %w", gen, err)
		}
	}
	return res, nil
}

// Strategies returns the engine's current strategy population (a copy);
// useful for inspecting state between manual stepping in tests.
func (e *Engine) Strategies() []strategy.Strategy {
	out := make([]strategy.Strategy, len(e.genomes))
	for i, ind := range e.genomes {
		out[i] = strategy.New(ind.Genome.Clone())
	}
	return out
}
