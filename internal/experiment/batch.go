package experiment

import (
	"context"
	"fmt"

	"adhocga/internal/core"
	"adhocga/internal/event"
	"adhocga/internal/island"
	"adhocga/internal/rng"
	"adhocga/internal/runner"
	"adhocga/internal/scenario"
)

// job is one scenario resolved to a concrete workload: the spec with its
// scale fields filled in and the master seed its replicate seeds derive
// from. The shared worker pool schedules its repetitions as individual
// work units; every batch in the package flattens to jobs.
type job struct {
	spec scenario.Spec // resolved: builds each replicate's Config/IslandConfig
	c    Case
	sc   Scale
	seed uint64
}

// specJob resolves a declarative scenario against the run's default scale
// and fallback seed.
func specJob(spec scenario.Spec, defaults Scale, fallbackSeed uint64) (job, error) {
	if err := spec.Validate(); err != nil {
		return job{}, err
	}
	resolved := spec.Resolve(defaults)
	mode, err := resolved.Mode()
	if err != nil {
		return job{}, err
	}
	// Fail fast on parameter interactions (e.g. tournament size vs
	// population, or an islands block that does not divide the
	// population) the structural Validate cannot see: one bad spec must
	// reject the whole batch up front, not waste every other scenario's
	// compute before erroring. The seed is irrelevant to validation.
	if resolved.Islands != nil {
		if _, err := resolved.IslandConfig(1); err != nil {
			return job{}, err
		}
	} else if _, err := resolved.Config(1); err != nil {
		return job{}, err
	}
	return job{
		c: Case{ID: resolved.ID, Name: resolved.Name, Environments: resolved.Envs(), Mode: mode},
		sc: Scale{
			Name:        defaults.Name,
			Generations: resolved.Generations,
			Rounds:      resolved.Rounds,
			Repetitions: resolved.Repetitions,
		},
		seed: resolved.MasterSeed(fallbackSeed),
		spec: resolved,
	}, nil
}

// runJobs executes a batch of jobs on the shared bounded worker pool:
// every (job × replicate) pair becomes one work unit in a single queue, so
// workers cross job boundaries freely and no cores idle between
// scenarios. Per-replicate seeds are derived up front, in (job, replicate)
// order, from each job's own master seed — results are therefore
// bit-identical at any parallelism level, and identical to running each
// job alone. Cancellation is cooperative: running replicates stop at their
// next generation barrier, queued ones never start, and the returned error
// joins every replicate failure (task-index order) with ctx.Err().
func runJobs(ctx context.Context, pool *runner.Pool, jobs []job, opts Options, emit func(event.Event)) ([]*CaseResult, error) {
	type unit struct {
		job, rep int
		seed     uint64
	}
	var units []unit
	results := make([][]*core.Result, len(jobs))
	islandResults := make([][]*island.Result, len(jobs))
	for ji, j := range jobs {
		if j.sc.Repetitions < 1 {
			return nil, fmt.Errorf("experiment: scale %q has %d repetitions", j.sc.Name, j.sc.Repetitions)
		}
		master := rng.New(j.seed)
		results[ji] = make([]*core.Result, j.sc.Repetitions)
		if j.spec.Islands != nil {
			islandResults[ji] = make([]*island.Result, j.sc.Repetitions)
		}
		for rep := 0; rep < j.sc.Repetitions; rep++ {
			units = append(units, unit{job: ji, rep: rep, seed: master.Uint64()})
		}
	}
	task := func(i int) error {
		u := units[i]
		j := &jobs[u.job]
		emitUnit := func(ev event.Event) { emit(stamp(ev, u.job, u.rep)) }
		if j.spec.Islands != nil {
			// Island replicate: this task holds a pool slot, and the island
			// engine runs its per-generation evaluations on it plus any
			// slots free at the time, so the pool bounds both levels.
			icfg, err := j.spec.IslandConfig(u.seed)
			if err != nil {
				return err
			}
			icfg.Parallelism = opts.Parallelism
			engine, err := island.New(icfg)
			if err != nil {
				return err
			}
			ires, err := engine.Run(ctx, pool, emitUnit)
			if err != nil {
				return err
			}
			results[u.job][u.rep] = ires.Aggregate
			islandResults[u.job][u.rep] = ires
			return nil
		}
		cfg, err := j.spec.Config(u.seed)
		if err != nil {
			return err
		}
		engine, err := core.New(cfg)
		if err != nil {
			return err
		}
		res, err := engine.Run(ctx, emitUnit)
		if err != nil {
			return err
		}
		results[u.job][u.rep] = res
		return nil
	}
	onDone := func(done, total int) {
		emit(event.Event{Kind: event.KindReplicate, Replicate: &event.Replicate{Done: done, Total: total}})
	}
	if err := pool.Run(ctx, len(units), task, runner.Options{Parallelism: opts.Parallelism, OnDone: onDone}); err != nil {
		return nil, err
	}
	out := make([]*CaseResult, len(jobs))
	for ji, j := range jobs {
		out[ji] = Aggregate(j.c, j.sc, results[ji])
		if j.spec.Islands != nil {
			out[ji].Islands = SummarizeIslands(j.spec.Islands, islandResults[ji])
		}
		out[ji].TournamentSize = j.spec.TournamentSize
		if out[ji].TournamentSize <= 0 {
			out[ji].TournamentSize = 50
		}
		out[ji].Dynamics = j.spec.Dynamics
		if d := j.spec.Dynamics; d != nil && d.ChurnRate > 0 {
			out[ji].Recovery = SummarizeRecovery(out[ji].CoopMean, d.Interval, 0)
		}
	}
	return out, nil
}

// ScenarioRun pairs a scenario with the fallback master seed for its
// replicate streams (the spec's own pinned Seed wins when set). Zero is
// the "unset" sentinel — like Spec.Seed — and means "derive this
// scenario's stream from Options.Seed"; master seed 0 itself cannot be
// pinned, only derived.
type ScenarioRun struct {
	Spec scenario.Spec
	Seed uint64
}

// RunScenarios runs a batch of declarative scenarios on the shared worker
// pool and aggregates each into a CaseResult, in input order. Scenario
// fields left at zero fall back to the paper's parameterization and to
// the defaults scale. opts.Parallelism caps this batch's share of the
// pool; concurrent batches on one pool stay jointly bounded by its size.
//
// Each scenario's master seed is, in order of precedence: the spec's own
// pinned Seed, the ScenarioRun's Seed, or a per-scenario stream derived
// from Options.Seed (so unpinned scenarios in one batch never share
// replicate streams). Deterministic for fixed seeds regardless of
// parallelism.
//
// Every replicate's engine events reach emit stamped with the scenario's
// index in runs and the replicate's index within it, and each finished
// replicate emits a replicate event. emit is called concurrently from
// pool workers.
//
// Cancellation is cooperative: replicates stop at their next generation
// barrier and no new replicate starts once ctx is done. On cancellation
// RunScenarios returns nil results and an error satisfying
// errors.Is(err, ctx.Err()); the events emitted so far are the partial
// view.
func RunScenarios(ctx context.Context, pool *runner.Pool, runs []ScenarioRun, defaults Scale, opts Options, emit func(event.Event)) ([]*CaseResult, error) {
	if err := (runner.Options{Parallelism: opts.Parallelism}).Validate(); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	// One derived fallback per run, consumed unconditionally so that
	// pinning one scenario's seed never shifts its neighbors' streams.
	master := rng.New(opts.Seed)
	jobs := make([]job, len(runs))
	for i, r := range runs {
		fallback := master.Uint64()
		if r.Seed != 0 {
			fallback = r.Seed
		}
		j, err := specJob(r.Spec, defaults, fallback)
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	return runJobs(ctx, pool, jobs, opts, emit)
}

// stamp sets the batch position of an engine event's payload: the
// scenario index and the replicate within it. Engines emit every payload
// at scenario 0, replicate 0.
func stamp(ev event.Event, scen, rep int) event.Event {
	switch {
	case ev.Generation != nil:
		ev.Generation.Scenario, ev.Generation.Rep = scen, rep
	case ev.Islands != nil:
		ev.Islands.Scenario, ev.Islands.Rep = scen, rep
	case ev.Churn != nil:
		ev.Churn.Scenario, ev.Churn.Rep = scen, rep
	case ev.Checkpoint != nil:
		ev.Checkpoint.Scenario, ev.Checkpoint.Rep = scen, rep
	}
	return ev
}
