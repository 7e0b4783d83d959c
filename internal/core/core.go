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
// The Engine emits per-generation observables (cooperation level, fitness
// moments, diversity) as job events (internal/event) and returns the full
// history plus the final strategy population, which the experiment
// harness turns into the paper's figures and tables.
package core

import (
	"context"
	"fmt"

	"adhocga/internal/bitstring"
	"adhocga/internal/dynamics"
	"adhocga/internal/event"
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

	// CheckpointInterval, when positive, extracts hall-of-fame champions:
	// Run emits a checkpoint event right after the evaluation of every
	// CheckpointInterval-th generation (0, interval, 2·interval, …) and
	// always of the final one. It is purely observational — it never
	// consumes engine randomness — so enabling checkpoints cannot change
	// results.
	CheckpointInterval int
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

// CheckpointEvent builds the champion checkpoint event of generation gen:
// best is the generation's fittest individual, meanFit the population's
// mean fitness and coop its cooperation level; seed is the run's master
// seed, the replay provenance a hall-of-fame archive records.
func CheckpointEvent(gen int, seed uint64, best ga.Individual, meanFit, coop float64) event.Event {
	return event.Event{Kind: event.KindCheckpoint, Checkpoint: &event.Checkpoint{
		Gen:     gen,
		Seed:    seed,
		Genome:  strategy.New(best.Genome).Key(),
		Fitness: best.Fitness,
		MeanFit: meanFit,
		Coop:    coop,
	}}
}

// ChurnEvent builds the event reporting that a dynamics barrier fired
// after the reproduction of generation gen.
func ChurnEvent(gen int) event.Event {
	return event.Event{Kind: event.KindChurn, Churn: &event.Churn{Gen: gen}}
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
	// parity. Installed strategies are packed copies of the genomes, so
	// nothing else reads a buffer once its generation has reproduced.
	repro       [2]ga.Buffers
	reproParity int
}

// New validates the configuration and builds an Engine with a random
// initial population.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg: cfg,
		r:   rng.New(cfg.Seed),
		gen: network.NewGenerator(cfg.Eval.Tournament.Mode),
	}

	n := cfg.PopulationSize
	e.normals = make([]*game.Player, n)
	e.genomes = make([]ga.Individual, n)
	for i := range n {
		g := bitstring.New(strategy.Bits)
		// Identical draws to strategy.Random: one engine word per genome.
		g.FillRandom(e.r)
		e.genomes[i] = ga.Individual{Genome: g}
		e.normals[i] = game.NewNormal(network.NodeID(i), strategy.New(g))
	}
	maxCSN := cfg.Eval.MaxCSN()
	e.csn = make([]*game.Player, maxCSN)
	for i := range maxCSN {
		e.csn[i] = game.NewSelfish(network.NodeID(n + i))
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
		ids := n + maxCSN + cfg.Dynamics.AdversaryCount()
		dyn, err := dynamics.NewModel(*cfg.Dynamics, rng.New(cfg.Seed).Split(), ids, alpha)
		if err != nil {
			return nil, err
		}
		e.dyn = dyn
		e.byz = dyn.NewAdversaries(network.NodeID(n + maxCSN))
		if cfg.Dynamics.OnOff > 0 {
			e.cfg.Eval.Tournament.RoundDriver = dyn
		}
	}
	e.registry = tournament.BuildRegistry(e.normals, e.csn, e.byz)
	return e, nil
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
// scheme (selection, crossover, mutation). When dynamics are enabled, the
// perturbation barrier fires here after reproduction — churn replaces a
// seeded fraction of the offspring with naive immigrants under fresh
// identities, and the rewiring walk may shift the route-length landscape
// for the coming generations. Reproduce reports nothing; Run emits the
// barrier's churn event after it.
func (e *Engine) Reproduce() error {
	next, err := ga.NextGenerationInto(e.genomes, &e.cfg.GA, e.r, &e.repro[e.reproParity])
	if err != nil {
		return err
	}
	e.reproParity = 1 - e.reproParity
	for i := range e.genomes {
		e.genomes[i] = ga.Individual{Genome: next[i]}
	}
	gen := e.reproductions
	e.reproductions++
	if e.dyn != nil && e.dyn.Barrier(gen) {
		e.dyn.Churn(e.genomes, e.normals, &e.registry)
		if e.dyn.Rewire() {
			e.gen.SetMode(e.dyn.PathMode())
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
// EvaluateGeneration, one per individual in population order. Strategies
// are values, so snapshots stay valid after the engine evolves further.
func (e *Engine) SnapshotStrategies() []strategy.Strategy {
	out := make([]strategy.Strategy, len(e.normals))
	for i, p := range e.normals {
		out[i] = p.Strategy
	}
	return out
}

// Run executes the configured number of generations and returns the run
// history. It is deterministic for a given Config (including Seed).
//
// Each generation emits, right after evaluation, a generation event and,
// when CheckpointInterval makes it due, a checkpoint event; each dynamics
// barrier emits a churn event after the reproduction it followed. Events
// are stamped scenario 0, replicate 0. emit runs on the calling goroutine
// and never consumes engine randomness.
//
// The context is checked once per generation, at the barrier before
// evaluation — never inside a generation — so an uncancelled run consumes
// the RNG stream exactly as an uncancellable one would. On cancellation
// the partial Result recorded so far is returned together with an error
// wrapping ctx.Err(): the cooperation series covers every completed
// generation, while the Final* views stay unset (FinalCollector is nil)
// because the population has already been reproduced past the last
// evaluated generation. Callers distinguish interruption from failure
// with errors.Is(err, context.Canceled).
func (e *Engine) Run(ctx context.Context, emit func(event.Event)) (*Result, error) {
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

		emit(event.Event{Kind: event.KindGeneration, Generation: &event.Generation{
			Gen:         gen,
			Coop:        collector.CooperationLevel(),
			MeanEnvCoop: collector.MeanEnvCooperation(),
			BestFit:     fitStats.BestFitness,
			MeanFit:     fitStats.MeanFitness,
			Diversity:   fitStats.Diversity,
		}})
		if CheckpointDue(gen, e.cfg.CheckpointInterval, e.cfg.Generations) {
			emit(CheckpointEvent(gen, e.cfg.Seed, e.genomes[fitStats.BestIndex], fitStats.MeanFitness, collector.CooperationLevel()))
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
		if e.dyn != nil && e.dyn.Barrier(gen) {
			emit(ChurnEvent(gen))
		}
	}
	return res, nil
}
