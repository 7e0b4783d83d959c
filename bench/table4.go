package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"adhocga"
	"adhocga/internal/core"
	"adhocga/internal/experiment"
	"adhocga/internal/ga"
	"adhocga/internal/metrics"
	"adhocga/internal/rng"
	"adhocga/internal/scenario"
	"adhocga/internal/stats"
)

// table4-batch is the paper's own experiment: the four Table 4 cases as
// one batch job on an in-process Session, repeated pass after pass. The
// evaluation kernel (game, trust, tournament) does nearly all the work and
// the service, store and hub almost none, so a kernel change shows here
// and a service change should not. The one- and four-environment cases
// make uneven work units, so the runner's load balance shows too.
//
// Untraced, the run reports the median pass, and times the first
// generation event of every pass and of short probes between passes.
// Traced, it pairs each Session pass with a replay of the same eight units
// stepped directly through core.Engine, with a span around every call; the
// replay must reproduce the Session's result bit for bit.

// table4Pass is one submission of the Table 4 batch.
type table4Pass struct {
	wall    time.Duration // submit → terminal event
	watch   jobWatch
	results []*experiment.CaseResult
}

func runTable4(ctx context.Context, c runConfig, r *report) error {
	scale := adhocga.Scale{Name: "bench", Generations: c.size.t4Generations, Rounds: c.size.t4Rounds, Repetitions: c.size.t4Reps}
	// The warm-up is the same batch at one generation and replicate: it
	// builds every case's engine once and faults in the working set.
	warm := scale
	warm.Generations, warm.Repetitions = 1, 1

	var sess *adhocga.Session
	var setups []interval
	for i := 0; i < c.size.setups; i++ {
		if sess != nil {
			sess.Close()
		}
		start := time.Now()
		sess = adhocga.NewSession(adhocga.WithPoolSize(nproc))
		if _, err := submitTable4(ctx, sess, warm, warmSeed); err != nil {
			sess.Close()
			return err
		}
		setups = append(setups, interval{start, time.Now()})
	}
	defer sess.Close()

	var passes []table4Pass
	var replays []table4Replay
	var loads []load // the pool's load during each traced pass
	var firsts []interval
	pass := func() error {
		var sm *sampler
		if c.trace {
			sm = startSampler(sess)
		}
		p, err := submitTable4(ctx, sess, scale, c.seed)
		if c.trace {
			loads = append(loads, sm.finish())
		}
		if err != nil {
			return err
		}
		checkPass(r, p, scale, passes)
		passes = append(passes, p)
		firsts = append(firsts, interval{p.watch.submitted, p.watch.first})
		return nil
	}
	replay := func() error {
		rp, err := replayTable4(ctx, scale, c.seed, nproc)
		if err != nil {
			return err
		}
		replays = append(replays, rp)
		return nil
	}
	measured := time.Now()
	for i := 0; ; i++ {
		iteration := time.Now()
		r.sampleSpeed() // the session is idle between passes
		steps := []func() error{pass}
		if c.trace {
			// A pass and its replay take turns going first, so that
			// neither always runs on the heels of the other.
			steps = []func() error{pass, replay}
			if i%2 == 1 {
				steps = []func() error{replay, pass}
			}
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return err
			}
		}
		if c.trace {
			r.check("replay-matches-session", sameResults(replays[i].results, passes[i].results),
				"the traced replay's final cooperation differs from the Session's")
		}
		for j := 0; j < firstEventProbes && !c.trace; j++ {
			first, err := probeFirstEvent(ctx, sess, scale, c.seed)
			if !r.op("first-event probe", err) {
				break
			}
			firsts = append(firsts, first)
		}
		// Two passes at least, so the passes always check each other; more
		// while another iteration like this one fits the budget.
		if len(passes) >= 2 && time.Since(measured)+time.Since(iteration) > c.budget {
			break
		}
	}

	var walls, runs, gaps []time.Duration
	for _, p := range passes {
		walls = append(walls, p.wall)
		runs = append(runs, p.watch.run())
		gaps = append(gaps, p.watch.gaps.gaps...)
	}
	r.attempted += len(passes) + len(replays)
	if !c.trace {
		unitGens := float64(len(scenario.Table4()) * scale.Repetitions * scale.Generations)
		r.e2e = endToEnd{setups: setups, firsts: firsts}
		for _, p := range passes {
			iv := interval{p.watch.submitted, p.watch.done}
			r.e2e.stretches = append(r.e2e.stretches, stretch{iv, unitGens})
			r.e2e.ops = append(r.e2e.ops, iv)
		}
		return nil
	}

	// Each replay runs next to its pass, so the host's drift mostly
	// cancels in their ratio.
	ratios := make([]float64, len(replays))
	for i, rp := range replays {
		ratios[i] = rp.wall.Seconds() / walls[i].Seconds()
	}
	last := replays[len(replays)-1]
	r.addLayers(layerInputs{
		runs: runs, gaps: gaps, load: meanLoad(loads), sess: sess,
		wall: sumDurations(walls), tr: last.tr,
		overhead: median(ratios) - 1,
	})
	var evaluate, reproduce, create, aggregate []time.Duration
	var games uint64
	var idle []float64
	for _, rp := range replays {
		evaluate = append(evaluate, rp.tr.durations("core.evaluate")...)
		reproduce = append(reproduce, rp.tr.durations("core.reproduce")...)
		create = append(create, rp.tr.durations("core.new")...)
		aggregate = append(aggregate, sumDurations(rp.tr.durations("experiment.aggregate")))
		games += rp.games
		idle = append(idle, rp.tailIdle)
	}
	r.diagLatency("core.evaluate", evaluate, "ms")
	r.diagLatency("core.reproduce", reproduce, "us")
	r.diagLatency("core.new", create, "ms")
	r.diag("experiment.aggregate.ms", median(seconds(aggregate))*1e3, "ms")
	r.diag("tournament.games", float64(last.games), "count")
	r.diag("tournament.ns_per_game", sumDurations(evaluate).Seconds()*1e9/float64(games), "ns")
	r.diag("runner.tail_idle_frac", median(idle), "ratio")
	r.diag("replays", float64(len(replays)), "count")
	return nil
}

// table4Job is the batch exactly as a library user submits it.
func table4Job(scale adhocga.Scale, seed uint64) adhocga.ScenariosSpec {
	specs := scenario.Table4()
	runs := make([]adhocga.ScenarioRun, len(specs))
	for i, sp := range specs {
		runs[i] = adhocga.ScenarioRun{Spec: sp}
	}
	return adhocga.ScenariosSpec{Runs: runs, Defaults: scale, Opts: adhocga.RunOptions{Seed: seed, Parallelism: nproc}}
}

// submitTable4 submits the batch and follows its events to the end.
func submitTable4(ctx context.Context, sess *adhocga.Session, scale adhocga.Scale, seed uint64) (table4Pass, error) {
	start := time.Now()
	j, err := sess.Submit(ctx, table4Job(scale, seed))
	if err != nil {
		return table4Pass{}, err
	}
	w := watchJob(ctx, j, start)
	if err := j.Wait(ctx); err != nil {
		return table4Pass{}, fmt.Errorf("table4 batch: %w", err)
	}
	results, _ := j.Result().([]*experiment.CaseResult)
	return table4Pass{wall: w.done.Sub(start), watch: w, results: results}, nil
}

// firstEventProbes is how many times after each pass the batch is
// submitted again only to time its first generation event, and then
// cancelled: a pass alone gives one sample of a ~30 ms latency per ~7 s,
// too few for a steady median.
const firstEventProbes = 8

// probeFirstEvent submits the batch, cancels it at its first generation
// event and returns the wait for that event.
func probeFirstEvent(ctx context.Context, sess *adhocga.Session, scale adhocga.Scale, seed uint64) (interval, error) {
	wait := interval{from: time.Now()}
	j, err := sess.Submit(ctx, table4Job(scale, seed))
	if err != nil {
		return interval{}, err
	}
	for ev := range j.EventsContext(ctx) {
		if wait.to.IsZero() && ev.Kind == adhocga.KindGeneration {
			wait.to = time.Now()
			j.Cancel()
		}
	}
	if err := j.Wait(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return interval{}, fmt.Errorf("first-event probe: %w", err)
	}
	if wait.to.IsZero() {
		return interval{}, fmt.Errorf("first-event probe: no generation event")
	}
	return wait, nil
}

func checkPass(r *report, p table4Pass, scale adhocga.Scale, earlier []table4Pass) {
	cases := len(scenario.Table4())
	gens := cases * scale.Repetitions * scale.Generations
	// Every replicate generation, every replicate and the terminal event.
	want := gens + cases*scale.Repetitions + 1
	r.check("pass-complete", p.watch.contiguous && p.watch.generations == gens && p.watch.events == want && len(p.results) == cases,
		"%d events (%d generation), %d results; want %d (%d), %d", p.watch.events, p.watch.generations, len(p.results), want, gens, cases)
	for _, res := range p.results {
		r.check("coop-in-range", res.FinalCoop.Mean >= 0 && res.FinalCoop.Mean <= 1, "%s final cooperation %v", res.Case.Name, res.FinalCoop.Mean)
	}
	if len(earlier) > 0 {
		r.check("passes-identical", sameResults(p.results, earlier[0].results), "a pass differs from the first under the same seed")
	}
}

// table4Replay is one traced replay of the batch.
type table4Replay struct {
	wall     time.Duration
	results  []*experiment.CaseResult
	games    uint64  // normal-originated games played
	tailIdle float64 // share of worker time idle after a worker ran out of units
	tr       *tracer
}

// replayUnit is one replicate of the batch, configured exactly as the
// experiment layer configures it.
type replayUnit struct {
	scen int
	cfg  core.Config
}

// replayTable4 runs the batch's units directly on core.Engine, workers
// goroutines claiming them in index order like the runner does, and folds
// them with experiment.Aggregate.
func replayTable4(ctx context.Context, scale adhocga.Scale, seed uint64, workers int) (table4Replay, error) {
	specs := scenario.Table4()
	// Seeds derive as experiment.RunScenarios derives them: one fallback
	// master seed per scenario from the batch seed, then one seed per
	// replicate from the scenario's master.
	master := rng.New(seed)
	resolved := make([]scenario.Spec, len(specs))
	var units []replayUnit
	for i, sp := range specs {
		fallback := master.Uint64()
		resolved[i] = sp.Resolve(scale)
		reps := rng.New(resolved[i].MasterSeed(fallback))
		for rep := 0; rep < resolved[i].Repetitions; rep++ {
			cfg, err := resolved[i].Config(reps.Uint64())
			if err != nil {
				return table4Replay{}, err
			}
			units = append(units, replayUnit{scen: i, cfg: cfg})
		}
	}

	tr := newTracer()
	start := time.Now()
	out := make([]*core.Result, len(units))
	games := make([]uint64, len(units))
	errs := make([]error, len(units))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				root := tr.begin("runner.unit", -1, w)
				out[i], games[i], errs[i] = stepUnit(units[i].cfg, tr, root)
				tr.end(root)
			}
		}()
	}
	wg.Wait()
	unitsDone := time.Since(start)
	if err := ctx.Err(); err != nil {
		return table4Replay{}, err
	}
	rp := table4Replay{tr: tr}
	for i, err := range errs {
		if err != nil {
			return table4Replay{}, fmt.Errorf("replay unit %d: %w", i, err)
		}
		rp.games += games[i]
	}
	for i, sp := range resolved {
		mode, err := sp.Mode()
		if err != nil {
			return table4Replay{}, err
		}
		var reps []*core.Result
		for u, unit := range units {
			if unit.scen == i {
				reps = append(reps, out[u])
			}
		}
		id := tr.begin("experiment.aggregate", -1, workers)
		rp.results = append(rp.results, experiment.Aggregate(
			experiment.Case{ID: sp.ID, Name: sp.Name, Environments: sp.Envs(), Mode: mode},
			adhocga.Scale{Name: scale.Name, Generations: sp.Generations, Rounds: sp.Rounds, Repetitions: sp.Repetitions},
			reps))
		tr.end(id)
	}
	rp.wall = time.Since(start)
	busy := sumDurations(tr.durations("runner.unit"))
	rp.tailIdle = 1 - busy.Seconds()/(float64(workers)*unitsDone.Seconds())
	return rp, nil
}

// stepUnit runs one replicate generation by generation, as
// core.Engine.RunContext does, with a span around each call into the
// engine. It returns the result and the normal-originated games played.
func stepUnit(cfg core.Config, tr *tracer, parent int) (*core.Result, uint64, error) {
	id := tr.begin("core.new", parent, 0)
	eng, err := core.New(cfg)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	res := core.NewResult(cfg.Generations, len(cfg.Eval.Environments))
	col := metrics.NewCollector()
	var games uint64
	for gen := 0; gen < cfg.Generations; gen++ {
		id = tr.begin("core.evaluate", parent, 0)
		err := eng.EvaluateGeneration(col)
		tr.end(id)
		if err != nil {
			return nil, 0, err
		}
		id = tr.begin("ga.stats", parent, 0)
		st := ga.Stats(eng.Population())
		tr.end(id)
		id = tr.begin("core.record", parent, 0)
		res.Record(col)
		tr.end(id)
		for _, env := range col.Environments() {
			games += env.NormalGames
		}
		if gen == cfg.Generations-1 {
			res.FinalStrategies = eng.SnapshotStrategies()
			res.FinalCollector = col
			res.FinalFitness = st
			break
		}
		id = tr.begin("core.reproduce", parent, 0)
		err = eng.Reproduce()
		tr.end(id)
		if err != nil {
			return nil, 0, err
		}
	}
	return res, games, nil
}

// sameResults reports whether two batches' final cooperation summaries
// are equal bit for bit.
func sameResults(a, b []*experiment.CaseResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameSummary(a[i].FinalCoop, b[i].FinalCoop) || !sameSummary(a[i].FinalMeanEnvCoop, b[i].FinalMeanEnvCoop) {
			return false
		}
	}
	return true
}

func sameSummary(a, b stats.Summary) bool {
	bits := func(s stats.Summary) [5]uint64 {
		return [5]uint64{uint64(s.N), math.Float64bits(s.Mean), math.Float64bits(s.StdDev), math.Float64bits(s.Min), math.Float64bits(s.Max)}
	}
	return bits(a) == bits(b)
}
