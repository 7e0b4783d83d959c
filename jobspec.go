package adhocga

import (
	"context"
	"fmt"

	"adhocga/internal/baselines"
	"adhocga/internal/core"
	"adhocga/internal/experiment"
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
// jobs (a single serial engine, an island engine, a mix, an IPDRP run, a
// league) count against the same capacity their batch siblings'
// replicates do — flooding a session with Submit calls cannot run more
// engines at once than the pool has slots. An island engine or a league
// fans out from inside that slot through the pool too, borrowing only
// slots that are free, so the pool bounds all of a job's work. fn's
// partial result and original error are preserved on cancellation.
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

// EvolveSpec runs one serial evolutionary experiment. Result type: *EvolutionResult — partial on cancellation.
// Events: KindGeneration per generation, KindChurn at dynamics barriers,
// KindCheckpoint when the config sets CheckpointInterval.
type EvolveSpec struct {
	Config EvolutionConfig
}

// Kind returns "evolve".
func (EvolveSpec) Kind() string { return "evolve" }

func (sp EvolveSpec) run(ctx context.Context, s *Session, emit func(Event)) (any, error) {
	return runPooled(ctx, s, func() (any, error) {
		engine, err := core.New(sp.Config)
		if err != nil {
			return nil, err
		}
		return engine.Run(ctx, emit)
	})
}

// IslandsSpec runs one island-model evolutionary experiment. Result
// type: *IslandResult — partial on cancellation. Events: KindIslands per
// generation, KindChurn at dynamics barriers (once per barrier, not per
// island), KindCheckpoint when Core.CheckpointInterval is set.
type IslandsSpec struct {
	Config IslandConfig
}

// Kind returns "islands".
func (IslandsSpec) Kind() string { return "islands" }

func (sp IslandsSpec) run(ctx context.Context, s *Session, emit func(Event)) (any, error) {
	return runPooled(ctx, s, func() (any, error) {
		engine, err := island.New(sp.Config)
		if err != nil {
			return nil, err
		}
		return engine.Run(ctx, s.pool, emit)
	})
}

// ScenariosSpec runs a batch of declarative scenarios (also
// Session.RunScenarios). Zero Defaults falls back to the session default scale.
// Result type: []*CaseResult, in input order. Events: KindGeneration /
// KindIslands per replicate generation, KindChurn at dynamics barriers,
// KindCheckpoint when a scenario sets checkpoints, KindReplicate per
// finished replicate.
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
	return experiment.RunScenarios(ctx, s.pool, sp.Runs, s.scaleOr(sp.Defaults), sp.Opts, emit)
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
	return runPooled(ctx, s, func() (any, error) {
		return ipdrp.Run(ctx, sp.Config, emit)
	})
}
