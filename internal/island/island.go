// Package island implements an island-model (distributed) genetic
// algorithm on top of the serial evolution engine of internal/core: the
// population of §5 is sharded into N subpopulations ("islands") evolved
// concurrently on the caller's execution pool (internal/runner), with
// periodic migration of elite genomes between islands over a pluggable
// topology.
// Island models are the standard scaling path for GAs on ad hoc network
// problems (Danoy et al., "Optimal Design of Ad Hoc Injection Networks by
// Using Genetic Algorithms"), and migration schemes of this shape are
// known to improve GA quality on dynamic routing problems (Nair et al.,
// immigrants and memory schemes).
//
// # Determinism contract
//
// Results are bit-identical for a fixed Config regardless of worker count,
// pool size or GOMAXPROCS:
//
//   - every island owns an independent rng.Source stream whose seed is
//     derived up front from the root seed, in island order, before any
//     parallel work starts;
//   - islands never share mutable state during evaluation — each island is
//     a complete core.Engine with its own players, reputation stores, and
//     path generator;
//   - migration happens only at generation barriers, after every island's
//     evaluation of the generation has finished, applied serially in
//     (source island, destination) order;
//   - every random choice migration makes (random-pairs matching, random
//     replacement slots) draws from one dedicated migration stream, also
//     derived from the root seed — never from an island's own stream, so
//     migration policy cannot perturb island evolution streams.
//
// A 1-island configuration inherits the root seed unchanged, skips
// migration entirely, and is therefore bit-identical to running the serial
// core.Engine on the same configuration (pinned by golden tests).
package island

import (
	"context"
	"fmt"

	"adhocga/internal/core"
	"adhocga/internal/event"
	"adhocga/internal/ga"
	"adhocga/internal/metrics"
	"adhocga/internal/rng"
	"adhocga/internal/runner"
	"adhocga/internal/strategy"
)

// Config parameterizes an island-model run. Core describes the whole
// experiment exactly as for the serial engine — total population,
// generations, evaluation scheme, GA operators, root seed — and the island
// fields describe how that population is sharded and re-mixed.
type Config struct {
	// Core is the serial-engine configuration of the whole run. Its
	// PopulationSize is the total across islands and must divide evenly
	// by Count; its Seed is the root seed all island and migration
	// streams derive from.
	Core core.Config
	// Count is the number of islands (≥1). One island degenerates to the
	// serial engine, bit for bit.
	Count int
	// Topology selects which islands exchange migrants at each barrier;
	// empty means Ring.
	Topology Topology
	// Interval is the number of generations between migration barriers;
	// 0 means DefaultInterval. With Interval i, migrations happen after
	// generations i-1, 2i-1, … (never after the final generation). To
	// evolve fully isolated islands, set Interval ≥ Core.Generations.
	Interval int
	// Migrants is the number of elite genomes each source island sends
	// along every topology edge per barrier; 0 means DefaultMigrants
	// (per the repo-wide "zero keeps the default" spec convention, 0 is
	// NOT "no migration" — use Interval for that). Must stay below the
	// per-island population.
	Migrants int
	// Replace selects which residents incoming migrants evict; empty
	// means ReplaceWorst.
	Replace Replacement
	// Parallelism caps how many of the pool's slots per-generation
	// island evaluation uses; ≤0 means no cap beyond the pool. It affects
	// wall-clock only, never results.
	Parallelism int
}

// Trace is one island's per-generation convergence history.
type Trace struct {
	// Best, Mean: the island's best and mean eq. 1 fitness per generation.
	Best []float64
	Mean []float64
	// Diversity is the island's mean pairwise Hamming distance per
	// generation, normalized by genome length (see ga.PopulationStats).
	Diversity []float64
}

// Result is the outcome of an island-model run.
type Result struct {
	// Aggregate is the run-wide view in exactly the serial engine's
	// shape: cooperation series over all islands' tournaments, the pooled
	// final strategy population (islands concatenated in order), merged
	// final metrics, and whole-population fitness statistics. For one
	// island it is bit-identical to core.Engine.Run's Result.
	Aggregate *core.Result
	// PerIsland holds each island's convergence/diversity trace, recorded
	// at the barrier after evaluation (before migration touches the
	// population).
	PerIsland []Trace
	// Champion is the best individual of the final generation across all
	// islands (ties broken by lowest island, then lowest index).
	Champion ga.Individual
	// MigrationEvents counts barriers at which migration ran;
	// MigrantsMoved counts genomes copied between islands in total.
	MigrationEvents int
	MigrantsMoved   int
}

// The defaults filled in for zero-valued Config fields — exported so the
// reporting layer (experiment.SummarizeIslands) can display the
// parameters a defaulted run actually used without duplicating them.
const (
	DefaultInterval = 10
	DefaultMigrants = 1
)

// withDefaults returns a copy with the zero-valued island fields filled
// with their documented defaults and the topology/replacement names
// normalized to canonical form (Edges and the migration switch match
// canonical names only, so an accepted alias like "fully-connected" must
// not survive past construction). Unknown names pass through unchanged
// for Validate to reject.
func (c Config) withDefaults() Config {
	if t, err := ParseTopology(string(c.Topology)); err == nil {
		c.Topology = t // also resolves "" to Ring
	}
	if r, err := ParseReplacement(string(c.Replace)); err == nil {
		c.Replace = r // also resolves "" to ReplaceWorst
	}
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.Migrants == 0 {
		c.Migrants = DefaultMigrants
	}
	return c
}

// islandConfig builds island i's serial-engine configuration: the shared
// Core with the per-island population share and the island's own seed.
func (c Config) islandConfig(per int, seed uint64) core.Config {
	cfg := c.Core
	cfg.PopulationSize = per
	cfg.Seed = seed
	return cfg
}

// Validate checks the configuration, including that every island's share
// of the population still satisfies the evaluation scheme's constraints
// (tournament size vs per-island population).
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Count < 1 {
		return fmt.Errorf("island: count %d < 1", c.Count)
	}
	if c.Core.PopulationSize%c.Count != 0 {
		return fmt.Errorf("island: population %d does not divide evenly into %d islands", c.Core.PopulationSize, c.Count)
	}
	per := c.Core.PopulationSize / c.Count
	if _, err := ParseTopology(string(c.Topology)); err != nil {
		return err
	}
	if _, err := ParseReplacement(string(c.Replace)); err != nil {
		return err
	}
	if c.Interval < 1 {
		return fmt.Errorf("island: migration interval %d < 1", c.Interval)
	}
	if c.Migrants < 0 || c.Migrants >= per {
		return fmt.Errorf("island: %d migrants per edge outside [0, %d) (per-island population)", c.Migrants, per)
	}
	probe := c.islandConfig(per, 1)
	if err := probe.Validate(); err != nil {
		return fmt.Errorf("island: per-island population %d (= %d / %d islands) is invalid: %w",
			per, c.Core.PopulationSize, c.Count, err)
	}
	return nil
}

// Engine evolves Count subpopulations concurrently with periodic
// migration. Create with New; Run may be called once.
type Engine struct {
	cfg        Config
	islands    []*core.Engine
	collectors []*metrics.Collector
	migr       *rng.Source // migration stream; nil for a single island
}

// New validates the configuration, derives every island's seed from the
// root seed (in island order, before any parallelism), and builds the
// island engines.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	per := cfg.Core.PopulationSize / cfg.Count
	e := &Engine{
		cfg:        cfg,
		islands:    make([]*core.Engine, cfg.Count),
		collectors: make([]*metrics.Collector, cfg.Count),
	}
	seeds := make([]uint64, cfg.Count)
	if cfg.Count == 1 {
		// The degenerate case inherits the root seed unchanged so that a
		// 1-island run replays the serial engine exactly.
		seeds[0] = cfg.Core.Seed
	} else {
		master := rng.New(cfg.Core.Seed)
		for i := range seeds {
			seeds[i] = master.Uint64()
		}
		e.migr = rng.New(master.Uint64())
	}
	for i := range e.islands {
		eng, err := core.New(cfg.islandConfig(per, seeds[i]))
		if err != nil {
			return nil, fmt.Errorf("island %d: %w", i, err)
		}
		e.islands[i] = eng
		e.collectors[i] = metrics.NewCollector()
	}
	return e, nil
}

// Run executes the configured number of generations: every generation,
// all islands evaluate concurrently on pool, the barrier merges
// their observables into the aggregate series, migration runs at every
// Interval-th barrier, and each island then reproduces with its own
// stream. Deterministic for a fixed Config at any parallelism level.
//
// The calling goroutine must hold one of pool's slots (it runs inside a
// pool task): each generation's evaluations run through pool.Share, on
// that goroutine plus any slots free at the time, so the engine never
// runs more evaluations at once than the pool has slots.
//
// At each barrier, after evaluation and before migration, Run emits an
// islands event (run-wide cooperation plus each island's convergence
// point) and, when Core.CheckpointInterval makes it due, a checkpoint
// event for the cross-island champion (best of the generation over all
// islands, ties broken by lowest island then lowest index) carrying
// Core.Seed. Each dynamics barrier emits one churn event after the
// islands reproduce. Events are stamped scenario 0, replicate 0. emit
// runs on the calling goroutine and never consumes engine or migration
// randomness.
//
// The context is checked once per generation at the barrier before the
// islands evaluate — never inside a generation — so an uncancelled run is
// bit-identical to an uncancellable one. On cancellation the partial
// Result (aggregate series and per-island traces for every completed
// generation; no final views, no champion) is returned together with an
// error wrapping ctx.Err().
func (e *Engine) Run(ctx context.Context, pool *runner.Pool, emit func(event.Event)) (*Result, error) {
	n := len(e.islands)
	gens := e.cfg.Core.Generations
	res := &Result{
		Aggregate: core.NewResult(gens, len(e.cfg.Core.Eval.Environments)),
		PerIsland: make([]Trace, n),
	}
	merged := metrics.NewCollector()
	islandStats := make([]ga.PopulationStats, n)

	for gen := 0; gen < gens; gen++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("island: interrupted before generation %d: %w", gen, err)
		}
		err := pool.Share(ctx, n, func(i int) error {
			return e.islands[i].EvaluateGeneration(e.collectors[i])
		}, runner.Options{Parallelism: e.cfg.Parallelism})
		if err != nil {
			return res, fmt.Errorf("island: generation %d: %w", gen, err)
		}

		// Barrier: fold the per-island observables into the run-wide view
		// and record each island's convergence point.
		merged.Reset()
		per := make([]event.IslandPoint, n)
		for i := range e.islands {
			merged.Merge(e.collectors[i])
			st := ga.Stats(e.islands[i].Population())
			islandStats[i] = st
			tr := &res.PerIsland[i]
			tr.Best = append(tr.Best, st.BestFitness)
			tr.Mean = append(tr.Mean, st.MeanFitness)
			tr.Diversity = append(tr.Diversity, st.Diversity)
			per[i] = event.IslandPoint{BestFit: st.BestFitness, MeanFit: st.MeanFitness, Diversity: st.Diversity}
		}
		res.Aggregate.Record(merged)

		emit(event.Event{Kind: event.KindIslands, Islands: &event.Islands{
			Gen:         gen,
			Coop:        merged.CooperationLevel(),
			MeanEnvCoop: merged.MeanEnvCooperation(),
			PerIsland:   per,
		}})
		if core.CheckpointDue(gen, e.cfg.Core.CheckpointInterval, gens) {
			bi, mean := 0, 0.0
			for i, st := range islandStats {
				if st.BestFitness > islandStats[bi].BestFitness {
					bi = i
				}
				mean += st.MeanFitness
			}
			best := e.islands[bi].Population()[islandStats[bi].BestIndex]
			emit(core.CheckpointEvent(gen, e.cfg.Core.Seed, best, mean/float64(n), merged.CooperationLevel()))
		}

		if gen == gens-1 {
			e.finalize(res, merged)
			break
		}

		// After New, Migrants is always ≥ 1 (zero defaults, negatives are
		// rejected), so the interval alone decides whether a barrier
		// migrates.
		if n > 1 && (gen+1)%e.cfg.Interval == 0 {
			moved, err := e.migrate()
			if err != nil {
				return nil, fmt.Errorf("island: generation %d migration: %w", gen, err)
			}
			res.MigrationEvents++
			res.MigrantsMoved += moved
		}

		// Reproduction, serially in island order; each island consumes
		// only its own stream, so order affects nothing but is kept fixed
		// for clarity. Every island shares the dynamics interval, so the
		// barrier is reported once for the whole replicate.
		for i := range e.islands {
			if err := e.islands[i].Reproduce(); err != nil {
				return nil, fmt.Errorf("island %d: generation %d reproduction: %w", i, gen, err)
			}
		}
		if dyn := e.islands[0].Dynamics(); dyn != nil && dyn.Barrier(gen) {
			emit(core.ChurnEvent(gen))
		}
	}
	return res, nil
}

// finalize fills the result's final-generation views: the pooled strategy
// population and fitness statistics over all islands, the merged metrics,
// and the champion.
func (e *Engine) finalize(res *Result, merged *metrics.Collector) {
	var pool []ga.Individual
	var strats []strategy.Strategy
	for _, isl := range e.islands {
		pool = append(pool, isl.Population()...)
		strats = append(strats, isl.SnapshotStrategies()...)
	}
	res.Aggregate.FinalStrategies = strats
	res.Aggregate.FinalCollector = merged
	res.Aggregate.FinalFitness = ga.Stats(pool)
	best := res.Aggregate.FinalFitness.BestIndex
	res.Champion = ga.Individual{
		Genome:  pool[best].Genome.Clone(),
		Fitness: pool[best].Fitness,
	}
}

// migrate runs one migration barrier: snapshot every island's elites, then
// copy them along the topology's edges, evicting residents per the
// replacement policy. Elites are snapshotted before any replacement so an
// island forwards only its own evolved genomes, never migrants it received
// in the same barrier. Returns the number of genomes moved.
func (e *Engine) migrate() (int, error) {
	n := len(e.islands)
	edges, err := e.cfg.Topology.Edges(n, e.migr)
	if err != nil {
		return 0, err
	}
	elites := make([][]ga.Individual, n)
	for s := range e.islands {
		elites[s] = topK(e.islands[s].Population(), e.cfg.Migrants)
	}
	moved := 0
	for s, dests := range edges {
		for _, d := range dests {
			pop := e.islands[d].Population()
			k := len(elites[s])
			// Pick the k eviction slots up front, distinct within the
			// edge: replacing one at a time would let a migrant weaker
			// than every resident become the new worst and be overwritten
			// by the very next migrant of the same edge.
			var slots []int
			switch e.cfg.Replace {
			case ReplaceRandom:
				slots = e.migr.Perm(len(pop))[:k]
			default: // ReplaceWorst
				slots = worstK(pop, k)
			}
			for j, m := range elites[s] {
				pop[slots[j]] = ga.Individual{Genome: m.Genome.Clone(), Fitness: m.Fitness}
				moved++
			}
		}
	}
	return moved, nil
}

// topK returns clones of the k fittest individuals, fitness descending,
// ties broken by lowest index.
func topK(pop []ga.Individual, k int) []ga.Individual {
	if k > len(pop) {
		k = len(pop)
	}
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by descending fitness, stable on index; populations
	// are small (tens per island), so O(n²) is fine here.
	for i := 1; i < len(idx); i++ {
		j := i
		for j > 0 && pop[idx[j]].Fitness > pop[idx[j-1]].Fitness {
			idx[j], idx[j-1] = idx[j-1], idx[j]
			j--
		}
	}
	out := make([]ga.Individual, k)
	for i := 0; i < k; i++ {
		out[i] = ga.Individual{
			Genome:  pop[idx[i]].Genome.Clone(),
			Fitness: pop[idx[i]].Fitness,
		}
	}
	return out
}

// worstK returns the indexes of the k lowest-fitness individuals, worst
// first, ties broken by lowest index.
func worstK(pop []ga.Individual, k int) []int {
	if k > len(pop) {
		k = len(pop)
	}
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by ascending fitness, stable on index.
	for i := 1; i < len(idx); i++ {
		j := i
		for j > 0 && pop[idx[j]].Fitness < pop[idx[j-1]].Fitness {
			idx[j], idx[j-1] = idx[j-1], idx[j]
			j--
		}
	}
	return idx[:k]
}
