package adhocga

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"adhocga/internal/league"
	"adhocga/internal/runner"
)

// Session is the context-aware front door to every long-running workload.
// It owns one shared execution pool (internal/runner.Pool) for its whole
// lifetime: every job submitted to the session — concurrently or not —
// draws its replicate work from the same bounded capacity, so an adhocd
// service (or any embedding program) can multiplex many experiments
// without oversubscribing the machine. Jobs are submitted as typed
// JobSpecs via Submit and observed through their Job handles: a unified
// event stream, Wait, and cooperative cancellation checked at generation
// barriers (so determinism and golden bit-identity are untouched for
// uncancelled runs — a job's numbers are exactly what the engine or
// experiment layer it wraps computes on its own).
//
// A Session is safe for concurrent use. Close cancels everything still
// running and waits for it to stop; a closed session rejects new
// submissions.
type Session struct {
	pool     *runner.Pool
	scale    Scale
	jobSlots chan struct{}
	retain   int // max terminal jobs kept; ≤0 = unlimited
	hubCfg   HubConfig
	logger   *slog.Logger
	// champions, when non-nil, receives a hall-of-fame record for every
	// KindCheckpoint event any job emits (observed on the emit path, so
	// archiving can never perturb engine randomness or job results).
	champions *league.Archive

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []*Job
	nextID    int
	submitted int
	retired   StreamTotals // stream counters of jobs pruned from the map
	closed    bool
	wg        sync.WaitGroup
}

// SessionOption configures NewSession.
type SessionOption func(*Session)

// WithPoolSize sets the session execution pool's slot count — the maximum
// number of CPU-bound goroutines the session runs at once across all
// jobs: replicates, engines, and the island evaluations and league
// matches they fan out. n ≤ 0 (the default) means min(GOMAXPROCS,
// NumCPU), measured before NewSession reserves its spare P.
func WithPoolSize(n int) SessionOption {
	return func(s *Session) { s.pool = runner.NewPool(n) }
}

// WithDefaultScale sets the Scale used by batch jobs whose spec leaves it
// zero. The default is ScaleDefault.
func WithDefaultScale(sc Scale) SessionOption {
	return func(s *Session) { s.scale = sc }
}

// WithMaxConcurrentJobs bounds how many jobs run at once; later
// submissions queue (state JobQueued) until a slot frees. A cancelled or
// finished job releases its slot immediately — at the generation barrier
// it stopped at, not at the end of the workload it abandoned. n ≤ 0 (the
// default) means no bound beyond the shared pool itself.
func WithMaxConcurrentJobs(n int) SessionOption {
	return func(s *Session) {
		if n > 0 {
			s.jobSlots = make(chan struct{}, n)
		} else {
			s.jobSlots = nil
		}
	}
}

// WithJobRetention bounds how many terminal jobs the session keeps
// reachable: once more than n jobs have finished, the oldest terminal
// ones (and their event logs) are evicted from Job/Jobs lookup so a
// long-lived session — the adhocd daemon — does not grow without bound.
// Running and queued jobs are never evicted, and held *Job handles stay
// valid after eviction. n ≤ 0 (the default) keeps every job forever.
func WithJobRetention(n int) SessionOption {
	return func(s *Session) { s.retain = n }
}

// WithHubConfig sizes every job's streaming hub: its ring capacity, which
// is the event retention and replay depth. A zero RingSize keeps
// DefaultRingSize. A subscriber is a cursor into that ring with no buffer
// of its own, and the producer waits at most one second for an archival
// subscriber that stopped reading before it evicts it. Together with
// WithJobRetention this bounds a long-lived session's event memory: a
// finished job's ring is fitted to the events it retained (at most
// RingSize), it caches no frames and keeps no subscriber maps once nobody
// streams it, and it keeps a snapshot map (the latest event per stream)
// only if its ring lapped. So a retained job holds at most RingSize
// events plus, past a lap, one per stream, and a short job holds only its
// own events.
func WithHubConfig(cfg HubConfig) SessionOption {
	return func(s *Session) { s.hubCfg = cfg }
}

// WithLogger sets the structured logger for session lifecycle events —
// job submissions, state transitions with job IDs, and hub backpressure
// evictions. The default discards everything, so embedding programs pay
// nothing unless they opt in.
func WithLogger(l *slog.Logger) SessionOption {
	return func(s *Session) { s.logger = l }
}

// WithChampionArchive attaches a hall-of-fame archive: every champion
// checkpoint any job emits (scenarios with "checkpoints" set, or engine
// configs with CheckpointInterval > 0) is recorded into it. Archiving is
// a pure observer of the event stream — results and event bytes are
// identical with or without it; Put failures are logged, never fatal to
// the job.
func WithChampionArchive(a *league.Archive) SessionOption {
	return func(s *Session) { s.champions = a }
}

// NewSession builds a Session from its functional options. It also keeps
// one P (a GOMAXPROCS scheduler slot) beyond what the session's pool can
// occupy; see reserveIOProc.
func NewSession(opts ...SessionOption) *Session {
	s := &Session{
		scale: ScaleDefault,
		jobs:  map[string]*Job{},
	}
	for _, o := range opts {
		o(s)
	}
	if s.pool == nil {
		s.pool = runner.NewPool(0)
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	reserveIOProc(s.pool.Size())
	return s
}

// procMu serializes reserveIOProc's read-then-raise, so two sessions built
// at once can never lower GOMAXPROCS.
var procMu sync.Mutex

// reserveIOProc raises GOMAXPROCS to min(pool, NumCPU)+1 when it is lower.
// With every P running a compute goroutine, a goroutine woken by an event
// append or by the network (an event consumer, a submit, a WebSocket
// handshake) waits for the runtime's ~10 ms preemption tick or sysmon's
// netpoll; a spare P picks it up at once. The pool bounds every CPU-bound
// goroutine, so the spare P stays spare. The NumCPU cap, with default
// pools sized min(GOMAXPROCS, NumCPU), keeps a second session from taking
// the spare P or ratcheting GOMAXPROCS up again. GOMAXPROCS is never
// lowered, and an operator's GOMAXPROCS environment setting is left alone.
func reserveIOProc(pool int) {
	if os.Getenv("GOMAXPROCS") != "" {
		return
	}
	procMu.Lock()
	defer procMu.Unlock()
	if want := min(pool, runtime.NumCPU()) + 1; runtime.GOMAXPROCS(0) < want {
		runtime.GOMAXPROCS(want)
	}
}

// PoolSize returns the session execution pool's slot count.
func (s *Session) PoolSize() int { return s.pool.Size() }

// DefaultScale returns the session's default scale.
func (s *Session) DefaultScale() Scale { return s.scale }

// scaleOr resolves a spec-level scale against the session default.
func (s *Session) scaleOr(sc Scale) Scale {
	if sc == (Scale{}) {
		return s.scale
	}
	return sc
}

// Submit starts spec as a new job and returns its handle immediately. The
// job's lifetime context derives from ctx: cancelling ctx (or calling
// Job.Cancel, or closing the session) stops the job cooperatively at its
// next generation barrier. Submit itself never blocks on capacity — a job
// past the session's concurrent-job bound waits in state JobQueued.
func (s *Session) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	return s.SubmitNamed(ctx, "", spec)
}

// SubmitNamed is Submit with a caller-chosen job ID instead of the
// session's sequential "job-N" (an empty id falls back to that default).
// The ID appears verbatim in every event the job emits, which is what
// makes replays comparable across processes: a durable service resuming a
// persisted job after a restart — or re-running one to verify it —
// submits under the original ID and gets a byte-identical event stream,
// not one reindexed by a fresh session's counter. Submitting an ID the
// session already knows (including a retained terminal job) is an error.
func (s *Session) SubmitNamed(ctx context.Context, id string, spec JobSpec) (*Job, error) {
	if spec == nil {
		return nil, fmt.Errorf("adhocga: nil job spec")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("adhocga: session is closed")
	}
	if id == "" {
		// Auto IDs skip over any names already taken by SubmitNamed.
		for {
			s.nextID++
			id = fmt.Sprintf("job-%d", s.nextID)
			if _, taken := s.jobs[id]; !taken {
				break
			}
		}
	} else if _, taken := s.jobs[id]; taken {
		s.mu.Unlock()
		return nil, fmt.Errorf("adhocga: job id %q already exists", id)
	}
	j := newJob(id, spec.Kind(), s.hubCfg, s.logger)
	jctx, cancel := context.WithCancel(ctx)
	j.cancel = cancel
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.submitted++
	s.wg.Add(1)
	s.mu.Unlock()
	s.logger.Info("job submitted", "job", j.id, "kind", j.kind)

	go func() {
		defer s.wg.Done()
		if s.jobSlots != nil {
			select {
			case s.jobSlots <- struct{}{}:
				defer func() { <-s.jobSlots }()
			case <-jctx.Done():
				j.finish(nil, fmt.Errorf("adhocga: job %s cancelled while queued: %w", j.id, jctx.Err()))
				s.logger.Info("job cancelled while queued", "job", j.id)
				s.prune()
				return
			}
		}
		j.setRunning()
		s.logger.Info("job running", "job", j.id, "kind", j.kind)
		emit := j.emit
		if s.champions != nil {
			emit = func(ev Event) {
				j.emit(ev)
				if ev.Kind == KindCheckpoint {
					s.archiveCheckpoint(j.id, spec, ev.Checkpoint)
				}
			}
		}
		res, err := spec.run(jctx, s, emit)
		j.finish(res, err)
		if err != nil {
			s.logger.Warn("job finished", "job", j.id, "state", string(j.State()), "error", err)
		} else {
			s.logger.Info("job finished", "job", j.id, "state", string(j.State()), "events", j.EventCount())
		}
		s.prune()
	}()
	return j, nil
}

// Champions returns the session's champion archive (nil when none is
// attached).
func (s *Session) Champions() *league.Archive { return s.champions }

// archiveCheckpoint records one checkpoint event into the champion
// archive. Failures are logged and swallowed: archiving is observational
// and must never fail the job that emitted the checkpoint.
func (s *Session) archiveCheckpoint(jobID string, spec JobSpec, cp *CheckpointEvent) {
	scen := checkpointScenarioName(spec, cp.Scenario)
	c := league.Champion{
		ID:          league.ChampionID(jobID, scen, cp.Rep, cp.Gen),
		Job:         jobID,
		Scenario:    scen,
		Rep:         cp.Rep,
		Generation:  cp.Gen,
		Genome:      cp.Genome,
		Seed:        cp.Seed,
		Fitness:     cp.Fitness,
		MeanFitness: cp.MeanFit,
		Cooperation: cp.Coop,
	}
	if err := c.Fill(); err != nil {
		s.logger.Warn("champion checkpoint dropped", "job", jobID, "error", err)
		return
	}
	if err := s.champions.Put(c); err != nil {
		s.logger.Warn("champion archive put failed", "job", jobID, "champion", c.ID, "error", err)
		return
	}
	s.logger.Debug("champion archived", "job", jobID, "champion", c.ID, "gen", cp.Gen)
}

// checkpointScenarioName resolves the scenario label a checkpoint's
// Scenario index refers to within the emitting spec.
func checkpointScenarioName(spec JobSpec, idx int) string {
	if sp, ok := spec.(ScenariosSpec); ok && idx >= 0 && idx < len(sp.Runs) {
		return sp.Runs[idx].Spec.Name
	}
	return spec.Kind()
}

// prune evicts the oldest terminal jobs beyond the retention bound so the
// job map and event logs stay bounded in long-lived sessions. Every
// terminal transition happens in the Submit goroutine, which calls prune
// right after finish.
func (s *Session) prune() {
	if s.retain <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	terminal := 0
	for _, j := range s.order {
		if j.State().Terminal() {
			terminal++
		}
	}
	if terminal <= s.retain {
		return
	}
	// DeleteFunc zeroes the vacated tail, so an evicted job and its hub
	// do not stay reachable from the backing array.
	s.order = slices.DeleteFunc(s.order, func(j *Job) bool {
		if terminal <= s.retain || !j.State().Terminal() {
			return false
		}
		delete(s.jobs, j.id)
		terminal--
		// Fold the evicted hub's counters into the retired accumulator
		// so StreamTotals stays monotonic across evictions.
		st := j.StreamStats()
		s.retired.Emitted += st.Emitted
		s.retired.Overwritten += st.Overwritten
		s.retired.Resyncs += st.Resyncs
		s.retired.Evictions += st.Evictions
		if st.MaxStall > s.retired.MaxStall {
			s.retired.MaxStall = st.MaxStall
		}
		s.logger.Debug("job evicted by retention", "job", j.id, "state", string(j.State()))
		return true
	})
}

// SessionStats is a point-in-time census of the session's jobs and
// execution capacity — the poll surface behind the daemon's session
// metrics. Counts by state cover only jobs still reachable (retention may
// have evicted older terminal ones); Submitted is lifetime-monotonic.
type SessionStats struct {
	// Submitted counts every accepted submission over the session's
	// lifetime, including jobs since evicted by retention.
	Submitted int
	// Per-state counts of the currently reachable jobs.
	Queued, Running, Done, Failed, Cancelled int
	// Retained is the number of reachable jobs (the sum of the above).
	Retained int
	// PoolSize and PoolBusy are the shared execution pool's slot count
	// and a point-in-time sample of slots currently held.
	PoolSize, PoolBusy int
}

// Stats returns the session's job and capacity census.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	st := SessionStats{
		Submitted: s.submitted,
		Retained:  len(s.order),
	}
	for _, j := range s.order {
		switch j.State() {
		case JobQueued:
			st.Queued++
		case JobRunning:
			st.Running++
		case JobDone:
			st.Done++
		case JobFailed:
			st.Failed++
		case JobCancelled:
			st.Cancelled++
		}
	}
	s.mu.Unlock()
	st.PoolSize = s.pool.Size()
	st.PoolBusy = s.pool.InUse()
	return st
}

// StreamTotals aggregates StreamStats across every job the session has
// ever run: live hubs summed at call time plus an accumulator folded in
// as retention evicts terminal jobs. All counters are lifetime-monotonic
// except Subscribers, which counts currently-attached subscriptions.
type StreamTotals struct {
	Emitted     int
	Overwritten int
	Subscribers int
	Resyncs     int
	Evictions   int
	MaxStall    time.Duration
}

// StreamTotals returns session-wide streaming counters.
func (s *Session) StreamTotals() StreamTotals {
	s.mu.Lock()
	tot := s.retired
	jobs := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	for _, j := range jobs {
		st := j.StreamStats()
		tot.Emitted += st.Emitted
		tot.Overwritten += st.Overwritten
		tot.Subscribers += st.Subscribers
		tot.Resyncs += st.Resyncs
		tot.Evictions += st.Evictions
		if st.MaxStall > tot.MaxStall {
			tot.MaxStall = st.MaxStall
		}
	}
	return tot
}

// Job returns the handle of a previously submitted job by ID.
func (s *Session) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job submitted to the session, in submission order.
func (s *Session) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.order...)
}

// Close cancels every non-terminal job, waits for all of them to stop,
// and marks the session closed. Safe to call more than once.
func (s *Session) Close() {
	s.mu.Lock()
	s.closed = true
	jobs := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	s.wg.Wait()
}

// Typed convenience wrappers for the workloads shipped callers run
// synchronously: submit one spec and wait for it. Each returns the job's
// typed result; on cancellation the error wraps context.Canceled. Every
// other workload is Submit with its spec.

// RunScenarios runs a batch of declarative scenarios on the session.
func (s *Session) RunScenarios(ctx context.Context, runs []ScenarioRun, defaults Scale, opts RunOptions) ([]*CaseResult, error) {
	res, err := s.submitAndWait(ctx, ScenariosSpec{Runs: runs, Defaults: defaults, Opts: opts})
	out, _ := res.([]*CaseResult)
	return out, err
}

// RunMix plays one fixed-population baseline tournament on the session.
func (s *Session) RunMix(ctx context.Context, cfg MixConfig) (*MixResult, error) {
	res, err := s.submitAndWait(ctx, MixSpec{Config: cfg})
	out, _ := res.(*MixResult)
	return out, err
}

func (s *Session) submitAndWait(ctx context.Context, spec JobSpec) (any, error) {
	j, err := s.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	// Wait on the job's own completion, not ctx: when ctx fires the job
	// stops at its next barrier and finish() delivers the partial result;
	// abandoning the wait early would lose it.
	if err := j.Wait(context.Background()); err != nil {
		return j.Result(), err
	}
	return j.Result(), nil
}

// compile-time interface checks for the spec set.
var (
	_ JobSpec = EvolveSpec{}
	_ JobSpec = IslandsSpec{}
	_ JobSpec = ScenariosSpec{}
	_ JobSpec = MixSpec{}
	_ JobSpec = IPDRPSpec{}
	_ JobSpec = LeagueJobSpec{}
)
