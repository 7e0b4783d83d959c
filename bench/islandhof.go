package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"adhocga"
	"adhocga/internal/jobstore"
	"adhocga/internal/league"
	"adhocga/internal/scenario"
)

// island-hof harvests hall-of-fame champions and plays them in a league.
// nproc closed-loop submitters each run a fixed number of island-model
// jobs on a Session with a file-backed champion archive; every job is
// drained by an archival subscriber; then a league seats the final
// champion of every job plus the scripted baselines. It uses the engine
// the opposite way from table4-batch: tiny evaluations with a barrier,
// migration, reproduction, an event and often a checkpoint every few
// milliseconds. A change to per-generation fixed cost — reproduction,
// island fan-out, event emission, or the archive Put and fsync that run
// on the engine goroutine — shows here, and a kernel change that adds
// set-up to every evaluation pass to win on table4-batch is caught here.
//
// One round is the whole harvest plus the league, on a fresh set-up.
// Traced, an untraced round is followed by the same round traced — the
// same job IDs and seeds, so the same champions and a league table that
// must be identical. The traced round's archive sits on a timing wrapper
// over the store and owns the store's fsync hook; no service runs here,
// so nothing else uses that hook.

// hof is one harvest set-up: a file-backed archive and the session that
// archives into it.
type hof struct {
	dir   string
	store *jobstore.File
	arch  *league.Archive
	sess  *adhocga.Session

	mu     sync.Mutex
	fsyncs []time.Duration // each of the store's fsyncs, traced only
}

func (h *hof) fsyncTimes() []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.fsyncs)
}

// hofScenario is one harvest job: a 4-island ring of 100 strategies in
// tournaments of 10, one environment with 2 selfish nodes, migration
// every generation and a champion checkpoint every 10 generations.
func hofScenario(generations int, seed uint64) scenario.Spec {
	return scenario.Spec{
		Name:           "hof",
		Environments:   []scenario.EnvSpec{{CSN: 2}},
		Population:     100,
		TournamentSize: 10,
		Rounds:         20,
		Generations:    generations,
		Repetitions:    1,
		Checkpoints:    10,
		Seed:           seed,
		Islands:        &scenario.IslandSpec{Count: hofIslands, Interval: 1},
	}
}

const hofIslands = 4

// hofJob wraps one harvest scenario as a job; parallelism 0 is the
// default a user gets, one island worker per processor.
func hofJob(spec scenario.Spec, parallelism int) adhocga.ScenariosSpec {
	return adhocga.ScenariosSpec{
		Runs:     []adhocga.ScenarioRun{{Spec: spec}},
		Defaults: adhocga.Scale{Name: "bench"},
		Opts:     adhocga.RunOptions{Parallelism: parallelism},
	}
}

// startHOF sets up a harvest and runs one short warm-up job on it. The
// warm-up runs its islands serially: fanned out, evaluations this small
// wait on cross-processor wake-ups, which make the set-up time jump
// between two modes from process to process. With a tracer, the
// archive's Puts are timed as jobstore.put spans under the span of the
// job they archive for, and the store's fsyncs are timed.
func startHOF(ctx context.Context, workdir string, tr *tracer, jobs *spanIndex) (*hof, error) {
	dir, err := os.MkdirTemp(workdir, "hof-*")
	if err != nil {
		return nil, err
	}
	h := &hof{dir: dir}
	if h.store, err = jobstore.OpenFile(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var store jobstore.Store = h.store
	if tr != nil {
		h.store.OnFsync(func(d time.Duration) {
			h.mu.Lock()
			h.fsyncs = append(h.fsyncs, d)
			h.mu.Unlock()
		})
		store = &timedStore{Store: h.store, tr: tr, jobs: jobs}
	}
	if h.arch, err = league.NewArchive(store); err != nil {
		h.store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	h.sess = adhocga.NewSession(adhocga.WithPoolSize(nproc), adhocga.WithChampionArchive(h.arch))
	j, err := h.sess.SubmitNamed(ctx, "warm-up", hofJob(hofScenario(20, warmSeed), 1))
	if err == nil {
		err = j.Wait(ctx)
	}
	if err != nil {
		h.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return h, nil
}

func (h *hof) close() {
	h.sess.Close()
	_ = h.arch.Close() // the data directory is removed next
	os.RemoveAll(h.dir)
}

// timedStore times the Puts the archive makes for the jobs of a traced
// round.
type timedStore struct {
	jobstore.Store
	tr   *tracer
	jobs *spanIndex
}

func (s *timedStore) Put(rec jobstore.Record) error {
	start := time.Now()
	err := s.Store.Put(rec)
	job, _, _ := strings.Cut(rec.ID, "/") // a champion ID starts with its job's ID
	if parent := s.jobs.get(job); parent >= 0 {
		s.tr.add("jobstore.put", parent, -1, start, time.Now())
	}
	return err
}

// spanIndex maps a job ID to its session.job span.
type spanIndex struct {
	mu  sync.Mutex
	ids map[string]int
}

func (x *spanIndex) set(job string, id int) {
	if x == nil {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.ids == nil {
		x.ids = map[string]int{}
	}
	x.ids[job] = id
}

func (x *spanIndex) get(job string) int {
	if x == nil {
		return -1
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if id, ok := x.ids[job]; ok {
		return id
	}
	return -1
}

// hofRound is what one harvest and league measured.
type hofRound struct {
	when       interval // the harvest's start → the last league's end
	harvest    time.Duration
	jobs       []jobWatch
	islandGens int
	leagues    []time.Duration
	matches    int
	table      [sha256.Size]byte // digest of the league table's JSON
}

// runHOFRound runs the harvest and then the league, twice: the league is
// a pure function of the archive, so both tables must be identical. The
// jobs' seeds derive from the run's seed and the round's index.
func runHOFRound(ctx context.Context, h *hof, c runConfig, index int, tr *tracer, jobSpans *spanIndex, r *report) (hofRound, error) {
	gens := c.size.hofGenerations
	per := c.size.hofJobsPerSubmitter
	rnd := rand.New(rand.NewPCG(c.seed, uint64(index)))
	seeds := make([]uint64, nproc*per)
	for i := range seeds {
		seeds[i] = rnd.Uint64()>>1 + 1
	}
	round := hofRound{jobs: make([]jobWatch, len(seeds))}
	errs := make([]error, nproc)
	start := time.Now()
	round.when.from = start
	var wg sync.WaitGroup
	for s := 0; s < nproc; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				i := s*per + k
				id := fmt.Sprintf("hof-%d", i)
				submitted := time.Now()
				sp := tr.begin("session.job", -1, s)
				jobSpans.set(id, sp)
				j, err := h.sess.SubmitNamed(ctx, id, hofJob(hofScenario(gens, seeds[i]), 0))
				if err != nil {
					errs[s] = err
					return
				}
				round.jobs[i] = watchJob(ctx, j, submitted)
				tr.end(sp)
				if errs[s] = j.Wait(ctx); errs[s] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	round.harvest = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return hofRound{}, err
		}
	}

	ids := make([]string, len(round.jobs))
	for i, w := range round.jobs {
		r.check("job-done", w.state == adhocga.JobDone && w.contiguous && w.generations == gens,
			"hof-%d: state %q after %d generations", i, w.state, w.generations)
		r.check("checkpoints-archived", w.checkpoints == gens/10+1, "hof-%d: %d checkpoints, want %d", i, w.checkpoints, gens/10+1)
		round.islandGens += w.generations * hofIslands
		ids[i] = league.ChampionID(fmt.Sprintf("hof-%d", i), "hof", 0, gens-1)
		_, ok := h.arch.Get(ids[i])
		r.check("final-champion-archived", ok, "no champion %s", ids[i])
	}
	slices.Sort(ids)

	seats := len(ids) + len(league.BaselineSeats())
	for n := 0; n < 2; n++ {
		sp := tr.begin("league.run", -1, nproc)
		leagueStart := time.Now()
		table, err := h.sess.RunLeague(ctx, adhocga.LeagueJobSpec{
			ChampionIDs: ids, IncludeBaselines: true,
			PerSide: 10, MatchesPerPair: 2, Rounds: 100, Seed: c.seed,
		})
		round.leagues = append(round.leagues, time.Since(leagueStart))
		tr.end(sp)
		if err != nil {
			return hofRound{}, fmt.Errorf("league: %w", err)
		}
		r.check("league-complete", table.Matches == seats*(seats-1) && len(table.Standings) == seats,
			"%d matches over %d standings; want %d over %d", table.Matches, len(table.Standings), seats*(seats-1), seats)
		b, err := json.Marshal(table)
		if err != nil {
			return hofRound{}, err
		}
		sum := sha256.Sum256(b)
		if n > 0 {
			r.check("league-deterministic", sum == round.table, "a rerun of the league produced another table")
		}
		round.table, round.matches = sum, table.Matches
	}
	round.when.to = time.Now()
	r.attempted += len(round.jobs) + len(round.leagues)
	return round, nil
}

func runIslandHOF(ctx context.Context, c runConfig, r *report) error {
	var setups []interval
	setup := func(tr *tracer, jobs *spanIndex) (*hof, error) {
		start := time.Now()
		h, err := startHOF(ctx, c.workdir, tr, jobs)
		if err == nil {
			setups = append(setups, interval{start, time.Now()})
		}
		return h, err
	}
	var h *hof
	for i := 0; i < c.size.setups; i++ {
		if h != nil {
			h.close()
		}
		var err error
		if h, err = setup(nil, nil); err != nil {
			return err
		}
	}

	// Rounds run while the next one fits the budget, each with its own
	// seeds, so that the run's median spans many distinct jobs: a job's
	// cost follows its evolutionary trajectory. A traced run makes one
	// untraced round and then repeats it as traceIslandHOF describes.
	var rounds []hofRound
	measured := time.Now()
	for {
		round, err := runHOFRound(ctx, h, c, len(rounds), nil, nil, r)
		h.close()
		if err != nil {
			return err
		}
		rounds = append(rounds, round)
		if c.trace || time.Since(measured)+time.Since(measured)/time.Duration(len(rounds)) > c.budget {
			break
		}
		r.sampleSpeed() // between rounds nothing runs
		if h, err = setup(nil, nil); err != nil {
			return err
		}
	}
	if c.trace {
		return traceIslandHOF(ctx, c, r, setup, rounds[0])
	}
	leagueDiagnostics(r, rounds)
	r.e2e = endToEnd{setups: setups}
	for _, round := range rounds {
		// The round's throughput counts the league: a user harvests in
		// order to play the champions.
		r.e2e.stretches = append(r.e2e.stretches, stretch{round.when, float64(round.islandGens)})
		for _, w := range round.jobs {
			r.e2e.ops = append(r.e2e.ops, interval{w.submitted, w.done})
			r.e2e.firsts = append(r.e2e.firsts, interval{w.submitted, w.first})
		}
	}
	return nil
}

// traceIslandHOF repeats a traced run's untraced round traced, on a
// set-up whose store is timed, and then untraced once more, and reports
// the traced round's per-layer metrics. Its overhead is measured against
// the untraced rounds on either side of it.
func traceIslandHOF(ctx context.Context, c runConfig, r *report, setup func(*tracer, *spanIndex) (*hof, error), plain hofRound) error {
	tr, jobs := newTracer(), &spanIndex{}
	h, err := setup(tr, jobs)
	if err != nil {
		return err
	}
	warmFsyncs, warmEvents := len(h.fsyncTimes()), h.sess.StreamTotals().Emitted
	sm := startSampler(h.sess)
	traced, err := runHOFRound(ctx, h, c, 0, tr, jobs, r)
	busy := sm.finish()
	h.close()
	if err != nil {
		return err
	}
	fsyncs := h.fsyncTimes()[warmFsyncs:]
	after, err := setup(nil, nil)
	if err != nil {
		return err
	}
	again, err := runHOFRound(ctx, after, c, 0, nil, nil, r)
	after.close()
	if err != nil {
		return err
	}
	for _, round := range []hofRound{traced, again} {
		r.check("league-deterministic", round.table == plain.table, "a repeat of the round produced another league table")
	}

	var runs, gaps []time.Duration
	generations := 0
	for _, w := range traced.jobs {
		runs = append(runs, w.run())
		gaps = append(gaps, w.gaps.gaps...)
		generations += w.generations
	}
	wall := func(round hofRound) time.Duration { return round.harvest + sumDurations(round.leagues) }
	r.addLayers(layerInputs{
		runs: runs, gaps: gaps, load: busy, sess: h.sess,
		store: h.store.Stats(), fsync: sumDurations(fsyncs), wall: wall(traced), tr: tr,
		overhead: 2*wall(traced).Seconds()/(wall(plain)+wall(again)).Seconds() - 1,
	})
	puts := tr.durations("jobstore.put")
	r.diagLatency("league.archive_put", puts, "us")
	r.diag("league.archive_put.calls", float64(len(puts)), "count")
	r.diagLatency("jobstore.fsync", fsyncs, "us")
	if len(fsyncs) > 0 {
		r.diag("jobstore.fsync.us_mean", sumDurations(fsyncs).Seconds()*1e6/float64(len(fsyncs)), "us")
	}
	r.diag("hub.events_per_generation", float64(h.sess.StreamTotals().Emitted-warmEvents)/float64(max(1, generations)), "count")
	leagueDiagnostics(r, []hofRound{plain, traced, again})
	return nil
}

// leagueDiagnostics reports the league's size and speed over rounds.
func leagueDiagnostics(r *report, rounds []hofRound) {
	var rates []float64
	for _, round := range rounds {
		for _, d := range round.leagues {
			rates = append(rates, float64(round.matches)/d.Seconds())
		}
	}
	r.diag("league.matches", float64(rounds[0].matches), "count")
	r.diag("league.matches_per_s", median(rates), "1/s")
	r.diag("league.match.us_mean", 1e6/median(rates), "us")
}
