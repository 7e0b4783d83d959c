package adhocga

import (
	"context"
	"fmt"

	"adhocga/internal/baselines"
	"adhocga/internal/core"
	"adhocga/internal/experiment"
	"adhocga/internal/ga"
	"adhocga/internal/ipdrp"
	"adhocga/internal/island"
	"adhocga/internal/runner"
)

// JobSpec describes one workload to Submit to a Session. The concrete spec
// types cover every long-running workload: EvolveSpec, IslandsSpec,
// ScenariosSpec (every batch, the paper's Table 4 cases included),
// MixSpec, IPDRPSpec, and LeagueJobSpec.
// The set is closed (the run method is unexported): the Session owns
// scheduling, event emission, and cancellation for all of them.
type JobSpec interface {
	// Kind returns the spec's job-kind tag, carried in the Job handle and
	// the adhocd service's responses.
	Kind() string

	// run executes the workload. It must honor ctx at generation
	// barriers, stream progress through emit, and return the typed
	// result. On cancellation it returns the partial result (nil when
	// none is meaningful) and an error wrapping ctx.Err().
	run(ctx context.Context, s *Session, emit func(Event)) (any, error)
}

// runPooled executes fn on one shared session pool slot, so engine-level
// jobs (a single serial engine, an island engine, a mix, an IPDRP run)
// count against the same capacity their batch siblings' replicates do —
// flooding a session with Submit calls cannot run more engines at once
// than the pool has slots. The island engine's per-generation evaluation
// workers inside that slot are the one documented exception (transient,
// wall-clock-only oversubscription — same tradeoff as island replicates
// in a batch). fn's partial result and original error are preserved on
// cancellation.
func runPooled(ctx context.Context, s *Session, fn func() (any, error)) (any, error) {
	var res any
	var ferr error
	err := s.pool.Run(ctx, 1, func(int) error {
		res, ferr = fn()
		return ferr
	}, runner.Options{})
	if ferr != nil {
		return res, ferr
	}
	return res, err // non-nil only when cancelled before the slot was won
}

// generationEvent adapts a core snapshot to the unified event shape.
func generationEvent(scen, rep int, gs core.GenerationStats) Event {
	return Event{Kind: KindGeneration, Generation: &GenerationEvent{
		Scenario:    scen,
		Rep:         rep,
		Gen:         gs.Generation,
		Coop:        gs.Cooperation,
		MeanEnvCoop: gs.MeanEnvCooperation,
		BestFit:     gs.Fitness.BestFitness,
		MeanFit:     gs.Fitness.MeanFitness,
		Diversity:   gs.Fitness.Diversity,
	}}
}

// islandsEvent adapts an island snapshot to the unified event shape.
func islandsEvent(scen, rep int, gs island.GenerationStats) Event {
	per := make([]IslandPoint, len(gs.Islands))
	for i, st := range gs.Islands {
		per[i] = IslandPoint{BestFit: st.BestFitness, MeanFit: st.MeanFitness, Diversity: st.Diversity}
	}
	return Event{Kind: KindIslands, Islands: &IslandsEvent{
		Scenario:    scen,
		Rep:         rep,
		Gen:         gs.Generation,
		Coop:        gs.Cooperation,
		MeanEnvCoop: gs.MeanEnvCooperation,
		PerIsland:   per,
	}}
}

// checkpointEvent adapts a champion checkpoint to the unified event shape.
func checkpointEvent(scen, rep int, seed uint64, cp core.Checkpoint) Event {
	return Event{Kind: KindCheckpoint, Checkpoint: &CheckpointEvent{
		Scenario: scen,
		Rep:      rep,
		Gen:      cp.Generation,
		Seed:     seed,
		Genome:   cp.Best.Key(),
		Fitness:  cp.Fitness,
		MeanFit:  cp.MeanFitness,
		Coop:     cp.Cooperation,
	}}
}

// callerHook is one hook slot a spec may arrive with: its field name and
// whether the caller filled it.
type callerHook struct {
	field string
	set   bool
}

// rejectCallerHooks fails a job whose spec fills a slot the session
// owns. A job is observed only through its events (Job.Events), so the
// engine hooks are the session's emit path, not a caller's; the pool is
// the session's too. The error names the first filled field.
func rejectCallerHooks(hooks ...callerHook) error {
	for _, h := range hooks {
		if h.set {
			return fmt.Errorf("adhocga: %s is set; the session owns it — observe the job through Job.Events", h.field)
		}
	}
	return nil
}

// coreHooks lists a serial engine config's hook slots under prefix.
func coreHooks(prefix string, cfg core.Config) []callerHook {
	return []callerHook{
		{prefix + ".OnGeneration", cfg.OnGeneration != nil},
		{prefix + ".OnChurn", cfg.OnChurn != nil},
		{prefix + ".OnCheckpoint", cfg.OnCheckpoint != nil},
	}
}

// eventOptions returns a copy of opts with the session's pool installed
// and every observation hook emitting events. Every batch spec's run goes
// through here, so a job observes the same events whether it arrives via
// Submit, Session.RunScenarios, or the HTTP service.
func eventOptions(opts RunOptions, s *Session, emit func(Event)) (RunOptions, error) {
	if err := rejectCallerHooks(
		callerHook{"RunOptions.Pool", opts.Pool != nil},
		callerHook{"RunOptions.OnReplicate", opts.OnReplicate != nil},
		callerHook{"RunOptions.OnGeneration", opts.OnGeneration != nil},
		callerHook{"RunOptions.OnIslandGeneration", opts.OnIslandGeneration != nil},
		callerHook{"RunOptions.OnChurn", opts.OnChurn != nil},
		callerHook{"RunOptions.OnCheckpoint", opts.OnCheckpoint != nil},
	); err != nil {
		return opts, err
	}
	opts.Pool = s.pool
	opts.OnReplicate = func(done, total int) {
		emit(Event{Kind: KindReplicate, Replicate: &ReplicateEvent{Done: done, Total: total}})
	}
	opts.OnGeneration = func(scen, rep int, gs core.GenerationStats) {
		emit(generationEvent(scen, rep, gs))
	}
	opts.OnIslandGeneration = func(scen, rep int, gs island.GenerationStats) {
		emit(islandsEvent(scen, rep, gs))
	}
	opts.OnChurn = func(scen, rep, gen int) {
		emit(Event{Kind: KindChurn, Churn: &ChurnEvent{Scenario: scen, Rep: rep, Gen: gen}})
	}
	opts.OnCheckpoint = func(scen, rep int, seed uint64, cp core.Checkpoint) {
		emit(checkpointEvent(scen, rep, seed, cp))
	}
	return opts, nil
}

// EvolveSpec runs one serial evolutionary experiment. Result type: *EvolutionResult — partial on cancellation.
// Events: KindGeneration per generation, KindChurn at dynamics barriers.
type EvolveSpec struct {
	Config EvolutionConfig
}

// Kind returns "evolve".
func (EvolveSpec) Kind() string { return "evolve" }

func (sp EvolveSpec) run(ctx context.Context, s *Session, emit func(Event)) (any, error) {
	cfg := sp.Config
	if err := rejectCallerHooks(coreHooks("EvolutionConfig", cfg)...); err != nil {
		return nil, err
	}
	cfg.OnGeneration = func(gs GenerationStats) { emit(generationEvent(0, 0, gs)) }
	cfg.OnChurn = func(gen int) { emit(Event{Kind: KindChurn, Churn: &ChurnEvent{Gen: gen}}) }
	cfg.OnCheckpoint = func(cp core.Checkpoint) { emit(checkpointEvent(0, 0, cfg.Seed, cp)) }
	return runPooled(ctx, s, func() (any, error) {
		engine, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		return engine.RunContext(ctx)
	})
}

// IslandsSpec runs one island-model evolutionary experiment. Result
// type: *IslandResult — partial on cancellation. Events: KindIslands per
// generation, KindChurn at dynamics barriers.
type IslandsSpec struct {
	Config IslandConfig
}

// Kind returns "islands".
func (IslandsSpec) Kind() string { return "islands" }

func (sp IslandsSpec) run(ctx context.Context, s *Session, emit func(Event)) (any, error) {
	cfg := sp.Config
	hooks := append(coreHooks("IslandConfig.Core", cfg.Core),
		callerHook{"IslandConfig.OnGeneration", cfg.OnGeneration != nil},
		callerHook{"IslandConfig.OnCheckpoint", cfg.OnCheckpoint != nil})
	if err := rejectCallerHooks(hooks...); err != nil {
		return nil, err
	}
	if cfg.Parallelism <= 0 {
		// The pool's size, not GOMAXPROCS, which a server raises to keep
		// a P free for I/O.
		cfg.Parallelism = s.PoolSize()
	}
	cfg.OnGeneration = func(gs IslandGenerationStats) { emit(islandsEvent(0, 0, gs)) }
	cfg.Core.OnChurn = func(gen int) { emit(Event{Kind: KindChurn, Churn: &ChurnEvent{Gen: gen}}) }
	cfg.OnCheckpoint = func(cp core.Checkpoint) { emit(checkpointEvent(0, 0, cfg.Core.Seed, cp)) }
	return runPooled(ctx, s, func() (any, error) {
		engine, err := island.New(cfg)
		if err != nil {
			return nil, err
		}
		return engine.RunContext(ctx)
	})
}

// ScenariosSpec runs a batch of declarative scenarios (also
// Session.RunScenarios). Zero Defaults falls back to the session default scale.
// Result type: []*CaseResult, in input order. Events: KindGeneration /
// KindIslands per replicate generation, KindChurn at dynamics barriers,
// KindReplicate per finished replicate.
type ScenariosSpec struct {
	Runs     []ScenarioRun
	Defaults Scale
	Opts     RunOptions
}

// Kind returns "scenarios".
func (ScenariosSpec) Kind() string { return "scenarios" }

func (sp ScenariosSpec) run(ctx context.Context, s *Session, emit func(Event)) (any, error) {
	if len(sp.Runs) == 0 {
		return nil, fmt.Errorf("adhocga: scenarios job has no scenarios")
	}
	opts, err := eventOptions(sp.Opts, s, emit)
	if err != nil {
		return nil, err
	}
	return experiment.RunScenariosContext(ctx, sp.Runs, s.scaleOr(sp.Defaults), opts)
}

// MixSpec plays one fixed-population baseline tournament (also
// Session.RunMix). Result type: *MixResult. A mix is a single bounded
// tournament, far below generation granularity, so it runs to completion
// once started; cancellation only prevents a queued mix from starting.
// Events: the terminal KindDone only.
type MixSpec struct {
	Config MixConfig
}

// Kind returns "mix".
func (MixSpec) Kind() string { return "mix" }

func (sp MixSpec) run(ctx context.Context, s *Session, _ func(Event)) (any, error) {
	return runPooled(ctx, s, func() (any, error) {
		return baselines.RunMix(sp.Config)
	})
}

// IPDRPSpec evolves the IPDRP substrate. Result type: *IPDRPResult — partial on cancellation. Events:
// KindGeneration per generation (fitness moments from the GA population;
// MeanEnvCoop mirrors Coop, IPDRP having a single environment).
type IPDRPSpec struct {
	Config IPDRPConfig
}

// Kind returns "ipdrp".
func (IPDRPSpec) Kind() string { return "ipdrp" }

func (sp IPDRPSpec) run(ctx context.Context, s *Session, emit func(Event)) (any, error) {
	cfg := sp.Config
	if err := rejectCallerHooks(callerHook{"IPDRPConfig.OnGeneration", cfg.OnGeneration != nil}); err != nil {
		return nil, err
	}
	cfg.OnGeneration = func(gen int, coopRate float64, stats ga.PopulationStats) {
		emit(Event{Kind: KindGeneration, Generation: &GenerationEvent{
			Gen:         gen,
			Coop:        coopRate,
			MeanEnvCoop: coopRate,
			BestFit:     stats.BestFitness,
			MeanFit:     stats.MeanFitness,
			Diversity:   stats.Diversity,
		}})
	}
	return runPooled(ctx, s, func() (any, error) {
		return ipdrp.RunContext(ctx, cfg)
	})
}
