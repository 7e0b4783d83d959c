// Package service is the HTTP face of the Session/Job API — the layer the
// adhocd daemon (cmd/adhocd) serves. It accepts the repo's declarative
// scenario-spec JSON (internal/scenario, the same documents the CLIs'
// -scenario flag loads), runs each submission as a job on one shared
// Session, and streams the job's unified event stream back as NDJSON or
// SSE. Jobs sharing the session share its execution pool and its
// concurrent-job bound, so a burst of submissions queues instead of
// oversubscribing the machine.
//
// # API
//
//	POST   /v1/jobs             submit a scenario batch; returns the job handle
//	GET    /v1/jobs             list jobs in submission order (?state= filters)
//	GET    /v1/jobs/{id}        job status (+ per-scenario results when done)
//	GET    /v1/jobs/{id}/events stream events as NDJSON (or SSE via Accept)
//	GET    /v1/jobs/{id}/ws     stream events over WebSocket (live fan-out)
//	POST   /v1/jobs/{id}/verify replay a finished job and compare (see verify.go)
//	DELETE /v1/jobs/{id}        cancel the job cooperatively
//	GET    /v1/champions        list the hall of fame (?category=, ?job= filter)
//	GET    /v1/champions/{id}   one champion record
//	POST   /v1/league           run a league over selected champions (league.go)
//	GET    /healthz             liveness + build/store/recovery report
//
// # Durability
//
// Every submission is persisted to a jobstore.Store (Options.Store; the
// in-memory backend by default, the WAL-backed file backend under adhocd
// -store file) exactly twice. The queued record of (id, spec JSON, seed)
// is written before the 202; the terminal record adds the final state, the
// result summary, its SHA-256 digest, and (for parallelism-1 jobs whose
// full history the streaming hub still retained) the complete NDJSON event
// replay, embedded up to 4 MiB and kept as a digest beyond that. Nothing
// is written while a job runs: live jobs are always served from the
// session. Recover, called once at startup, re-submits every unfinished
// record from its recorded (seed, spec) — the determinism contract makes
// the re-run bit-identical to the lost one — and leaves finished records
// to serve status, results, and archived event replays without
// recompute. See persist.go. Verify judges the stored terminal record, or,
// for a finished job whose stored record is still the queued one, the
// terminal record built from the live job (see verify.go).
//
// The submit body, at most 1 MiB, is either bare scenario-spec JSON (one
// object or an array — exactly what LoadScenarios accepts) or a wrapper
// object {"scenarios": …, "scale": "smoke", "seed": 1, "parallelism": 2}
// pinning the run parameters; without "scale" the session's default
// scale applies. A key the wrapper does not know is a 400, as is one in a
// league body. Event streams are deterministic for a fixed seed at
// parallelism 1: no timestamps, stable field order, sequential job IDs —
// the NDJSON golden test byte-compares a whole stream.
//
// # Streaming policies
//
// All three stream endpoints fan out from the job's hub (ring buffer +
// compacted snapshot) instead of a per-client replay log:
//
//   - NDJSON is the archival path: full replay from the oldest retained
//     event under the BlockWithDeadline policy, so an actively-draining
//     consumer sees every event gap-free; one that stops draining for the
//     hub's one-second deadline is disconnected.
//   - SSE is a live-viewer path: every frame carries `id: <seq>`, a
//     reconnecting client resumes via the standard Last-Event-ID header
//     (from the ring, or the compacted snapshot of anything older), and a
//     lapped client is resynced from the snapshot instead of stalling the
//     producer. Idle streams get `: ping` comment frames on
//     Options.KeepaliveInterval so reverse proxies keep them open. A job
//     recovered from the store streams its stored log as the same frames.
//   - WebSocket is the fan-out path for many concurrent viewers: by
//     default a subscriber joins live (current snapshot, then new events
//     as text frames); ?after=N resumes after sequence N and ?replay=full
//     replays like NDJSON. The server pings idle connections on the
//     keepalive interval and closes with code 1000 after the terminal
//     event, or 4001 if the client stops draining.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adhocga"
	"adhocga/internal/experiment"
	"adhocga/internal/jobstore"
	"adhocga/internal/obs"
	"adhocga/internal/runner"
	"adhocga/internal/scenario"
	"adhocga/internal/ws"
)

// CloseSlowSubscriber is the application WebSocket close code for a
// backpressure eviction: the client stopped reading and its subscription
// was dropped. Reconnect with ?after= to resume.
const CloseSlowSubscriber uint16 = 4001

// Body and stored-log caps, the same for every server.
const (
	// maxBodyBytes caps a submit or league request body.
	maxBodyBytes = 1 << 20
	// maxStoredLogBytes caps how large an event log a finished job's
	// record may embed; bigger logs keep only their digest.
	maxStoredLogBytes = 4 << 20
)

// Options tune a Server. Submissions that pin no scale run at the
// session's default scale (adhocga.WithDefaultScale).
type Options struct {
	// KeepaliveInterval is how often idle SSE streams emit a `: ping`
	// comment frame and idle WebSocket connections a ping frame, so
	// reverse proxies don't sever quiet streams. ≤0 means 15s; set it
	// very large to effectively disable keepalives.
	KeepaliveInterval time.Duration
	// Store persists job records across restarts. nil means a fresh
	// in-memory store — the pre-durability behavior, with verify still
	// available for jobs finished in this process.
	Store jobstore.Store
	// Version is the build identifier /healthz reports ("" means "dev").
	Version string
	// Logger receives the service's structured logs: submissions,
	// recovery and resume notes, persistence failures — each tagged with
	// the job ID it concerns. nil discards everything.
	Logger *slog.Logger
	// EnablePprof mounts the net/http/pprof handlers under
	// /debug/pprof/ — opt-in because profiles expose internals and cost
	// CPU while running.
	EnablePprof bool
}

// Server routes the v1 API onto a Session. Create with New; it implements
// http.Handler. The server does not own the session — closing the session
// (after draining the server) is the caller's shutdown step.
type Server struct {
	session *adhocga.Session
	opts    Options
	mux     *http.ServeMux
	store   jobstore.Store

	// metrics is the server's own registry behind GET /metrics; requests
	// and verifies are its push-style instruments (everything else is
	// polled — see metrics.go).
	metrics  *obs.Registry
	requests *obs.CounterVec
	verifies *obs.CounterVec
	// League instruments: runs counts accepted POST /v1/league
	// submissions, matches the matches of finished league jobs.
	leagueRuns    *obs.Counter
	leagueMatches *obs.Counter

	// baseCtx outlives every request and is cancelled by Shutdown; the
	// streaming handlers derive their subscription contexts from both it
	// and the request, so long-lived streams (including hijacked
	// WebSockets, which http.Server.Shutdown cannot drain) wind down on
	// service shutdown.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	// newTicker is the keepalive clock, swappable by tests: it returns a
	// tick channel firing every d plus a stop function.
	newTicker func(d time.Duration) (<-chan time.Time, func())

	// pendingWatches counts watch goroutines that have not yet written
	// their job's terminal record.
	pendingWatches atomic.Int64

	// mu guards the durable-tier bookkeeping: the external job-ID
	// sequence (seeded from the store so IDs stay unique across
	// restarts) and the recovery counters /healthz reports.
	mu        sync.Mutex
	nextID    int
	recovered int
	resumed   int
}

// New builds a Server over the given session. The session already keeps
// one P (a GOMAXPROCS scheduler slot) beyond what its compute pool can
// occupy, so handlers answer while every pool slot computes.
func New(session *adhocga.Session, opts Options) *Server {
	if opts.KeepaliveInterval <= 0 {
		opts.KeepaliveInterval = 15 * time.Second
	}
	if opts.Version == "" {
		opts.Version = "dev"
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	if opts.Store == nil {
		opts.Store = jobstore.NewMem()
	}
	s := &Server{
		session: session,
		opts:    opts,
		mux:     http.NewServeMux(),
		store:   opts.Store,
		metrics: obs.NewRegistry(),
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.nextID = s.maxStoredID()
	s.newTicker = func(d time.Duration) (<-chan time.Time, func()) {
		t := time.NewTicker(d)
		return t.C, t.Stop
	}
	s.registerMetrics()
	s.handle("POST /v1/jobs", s.handleSubmit)
	s.handle("GET /v1/jobs", s.handleList)
	s.handle("GET /v1/jobs/{id}", s.handleStatus)
	s.handle("GET /v1/jobs/{id}/events", s.handleEvents)
	s.handle("GET /v1/jobs/{id}/ws", s.handleWS)
	s.handle("POST /v1/jobs/{id}/verify", s.handleVerify)
	s.handle("DELETE /v1/jobs/{id}", s.handleCancel)
	s.handle("GET /v1/champions", s.handleChampions)
	s.handle("GET /v1/champions/{id...}", s.handleChampion)
	s.handle("POST /v1/league", s.handleLeague)
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /metrics", s.metrics.Handler().ServeHTTP)
	if opts.EnablePprof {
		s.registerPprof()
	}
	return s
}

// Shutdown cancels every live stream — WebSocket, SSE, NDJSON — so their
// handlers return promptly. Call it before http.Server.Shutdown: the
// drain only waits for plain requests, and hijacked WebSocket connections
// would otherwise never see a close frame. Safe to call more than once;
// the server keeps serving non-streaming requests afterwards.
func (s *Server) Shutdown() { s.cancelBase() }

// streamContext derives a stream's lifetime from both the request (client
// went away) and the server (Shutdown called). The returned stop releases
// the shutdown hook; callers must defer both.
func (s *Server) streamContext(r *http.Request) (context.Context, context.CancelFunc, func() bool) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, cancel, stop
}

// handleHealthz reports liveness plus the durable tier's identity: the
// build version, which store backend is configured, and how many jobs the
// startup Recover pass loaded and resumed.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	recovered, resumed := s.recovered, s.resumed
	s.mu.Unlock()
	// The metrics self-check renders the whole exposition: a collector
	// panicking or emitting garbage turns the liveness probe red before a
	// scraper ever trips over it.
	metricsOK := s.metrics.Healthy() == nil
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"version":        s.opts.Version,
		"store":          s.store.Backend(),
		"recovered_jobs": recovered,
		"resumed_jobs":   resumed,
		"metrics_ok":     metricsOK,
	})
}

// maxStoredID scans the store for the highest job-N suffix so freshly
// allocated IDs never collide with persisted ones.
func (s *Server) maxStoredID() int {
	recs, err := s.store.List()
	if err != nil {
		s.opts.Logger.Warn("list store for id seed failed", "error", err)
		return 0
	}
	max := 0
	for _, rec := range recs {
		var n int
		if _, err := fmt.Sscanf(rec.ID, "job-%d", &n); err == nil && n > max {
			max = n
		}
	}
	return max
}

// allocID returns the next external job ID, skipping every ID the
// session still holds: jobs submitted to it directly share its namespace.
func (s *Server) allocID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		s.nextID++
		id := fmt.Sprintf("job-%d", s.nextID)
		if _, taken := s.session.Job(id); !taken {
			return id
		}
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SubmitRequest is the wrapper form of the submit body. Scenarios holds
// scenario-spec JSON exactly as LoadScenarios accepts it (one spec object
// or an array).
type SubmitRequest struct {
	Scenarios   json.RawMessage `json:"scenarios"`
	Scale       string          `json:"scale,omitempty"`
	Seed        uint64          `json:"seed,omitempty"`
	Parallelism int             `json:"parallelism,omitempty"`
}

// JobInfo is the JSON shape of a job handle in submit/status/list
// responses.
type JobInfo struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	State  string `json:"state"`
	Events int    `json:"events"`
	Error  string `json:"error,omitempty"`
	// Results summarizes each scenario's outcome once the job is done.
	Results []ScenarioResult `json:"results,omitempty"`
	// League is a finished league job's table (kind "league" only).
	League *adhocga.LeagueTable `json:"league,omitempty"`

	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
	WSURL     string `json:"ws_url"`
	VerifyURL string `json:"verify_url"`
}

// ScenarioResult is one scenario's headline numbers in a finished job.
type ScenarioResult struct {
	Name          string  `json:"name"`
	FinalCoopMean float64 `json:"final_coop_mean"`
	FinalCoopStd  float64 `json:"final_coop_std"`
	FinalEnvCoop  float64 `json:"final_env_coop_mean"`
	Generations   int     `json:"generations"`
	Repetitions   int     `json:"repetitions"`
}

func (s *Server) info(j *adhocga.Job) JobInfo {
	info := JobInfo{
		ID:        j.ID(),
		Kind:      j.Kind(),
		State:     string(j.State()),
		Events:    j.EventCount(),
		StatusURL: "/v1/jobs/" + j.ID(),
		EventsURL: "/v1/jobs/" + j.ID() + "/events",
		WSURL:     "/v1/jobs/" + j.ID() + "/ws",
		VerifyURL: "/v1/jobs/" + j.ID() + "/verify",
	}
	if err := j.Err(); err != nil {
		info.Error = err.Error()
	}
	info.Results = resultsOf(j)
	info.League = leagueOf(j)
	return info
}

// resultsOf summarizes a finished job's per-scenario results (nil while
// running or for failed jobs). The summary — not the raw result — is what
// the durable record digests, so verify verdicts are about the numbers a
// client actually received.
func resultsOf(j *adhocga.Job) []ScenarioResult {
	results, ok := j.Result().([]*experiment.CaseResult)
	if !ok {
		return nil
	}
	out := make([]ScenarioResult, 0, len(results))
	for _, res := range results {
		out = append(out, ScenarioResult{
			Name:          res.Case.Name,
			FinalCoopMean: res.FinalCoop.Mean,
			FinalCoopStd:  res.FinalCoop.StdDev,
			FinalEnvCoop:  res.FinalMeanEnvCoop.Mean,
			Generations:   res.Scale.Generations,
			Repetitions:   res.Scale.Repetitions,
		})
	}
	return out
}

// infoFromRecord is info for a job that lives only in the store — one
// recovered from a previous process. Terminal, by construction: running
// jobs are always in the session.
func infoFromRecord(rec jobstore.Record) JobInfo {
	info := JobInfo{
		ID:        rec.ID,
		Kind:      rec.Kind,
		State:     rec.State,
		Events:    rec.Events,
		Error:     rec.Error,
		StatusURL: "/v1/jobs/" + rec.ID,
		EventsURL: "/v1/jobs/" + rec.ID + "/events",
		WSURL:     "/v1/jobs/" + rec.ID + "/ws",
		VerifyURL: "/v1/jobs/" + rec.ID + "/verify",
	}
	if len(rec.Result) > 0 {
		if rec.Kind == "league" {
			_ = json.Unmarshal(rec.Result, &info.League)
		} else {
			_ = json.Unmarshal(rec.Result, &info.Results)
		}
	}
	return info
}

// handleSubmit accepts scenario-spec JSON and starts a scenarios job; the
// response returns at once with the handle.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := parseSubmit(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sp, spec, err := s.resolveSubmit(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.accept(w, r, sp, spec)
}

// readBody reads a submit body up to the size cap. On failure the error
// response has been written.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return nil, false
	}
	if len(body) > maxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxBodyBytes)
		return nil, false
	}
	return body, true
}

// accept is the one path from a parsed submission to a running job, for
// POST /v1/jobs and POST /v1/league alike. Durability before acceptance:
// the queued record holds doc, everything a later process needs to re-run
// the job bit-identically, and is on disk before the 202 goes out, so a
// crash at any later point can always recover the job. watch writes the
// record's only other version, the terminal one.
func (s *Server) accept(w http.ResponseWriter, r *http.Request, doc any, spec adhocga.JobSpec) {
	rec, err := newRecord(s.allocID(), doc)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if err := s.store.Put(rec); err != nil {
		httpError(w, http.StatusInternalServerError, "persist job: %v", err)
		return
	}
	// The job must outlive this request, so it derives from the
	// background context; its true lifetime bound is the session (Close
	// cancels it) and DELETE /v1/jobs/{id}.
	job, err := s.session.SubmitNamed(context.WithoutCancel(r.Context()), rec.ID, spec)
	if err != nil {
		rec.State = jobstore.StateFailed
		rec.Error = err.Error()
		if perr := s.store.Put(rec); perr != nil {
			s.opts.Logger.Warn("persist failed submit", "job", rec.ID, "error", perr)
		}
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.watch(rec, job)
	if rec.Kind == "league" {
		s.leagueRuns.Inc()
	}
	s.opts.Logger.Info("job accepted", "job", rec.ID, "kind", rec.Kind, "seed", rec.Seed, "deterministic", rec.Deterministic)
	writeJSON(w, http.StatusAccepted, s.info(job))
}

// resolvedSubmit is a submission with every server-side default folded
// in: the scale resolved to a concrete struct, seed and parallelism
// pinned. Its JSON form is the record's spec — a later process replays
// the job from this document alone, regardless of how that process's own
// defaults are configured.
type resolvedSubmit struct {
	Scenarios   json.RawMessage `json:"scenarios"`
	Scale       adhocga.Scale   `json:"scale"`
	Seed        uint64          `json:"seed,omitempty"`
	Parallelism int             `json:"parallelism,omitempty"`
}

// resolveSubmit validates the request, folds in the server defaults, and
// builds the job it describes.
func (s *Server) resolveSubmit(req SubmitRequest) (resolvedSubmit, adhocga.ScenariosSpec, error) {
	if err := (runner.Options{Parallelism: req.Parallelism}).Validate(); err != nil {
		return resolvedSubmit{}, adhocga.ScenariosSpec{}, err
	}
	specs, err := scenario.Load(bytes.NewReader(req.Scenarios))
	if err != nil {
		return resolvedSubmit{}, adhocga.ScenariosSpec{}, fmt.Errorf("scenarios: %w", err)
	}
	defaults := s.session.DefaultScale()
	if req.Scale != "" {
		defaults, err = experiment.ScaleByName(req.Scale)
		if err != nil {
			return resolvedSubmit{}, adhocga.ScenariosSpec{}, err
		}
	}
	sp := resolvedSubmit{
		Scenarios:   req.Scenarios,
		Scale:       defaults,
		Seed:        req.Seed,
		Parallelism: req.Parallelism,
	}
	return sp, sp.jobSpec(specs), nil
}

// jobSpec builds the session workload from a resolved submission and its
// parsed scenarios.
func (sp resolvedSubmit) jobSpec(specs []scenario.Spec) adhocga.ScenariosSpec {
	// Load has already validated every spec's structure; interaction
	// errors (tournament size vs population, island divisibility) surface
	// as a failed job, exactly like a bad batch in the CLIs.
	runs := make([]experiment.ScenarioRun, len(specs))
	for i, spec := range specs {
		runs[i] = experiment.ScenarioRun{Spec: spec}
	}
	return adhocga.ScenariosSpec{
		Runs:     runs,
		Defaults: sp.Scale,
		Opts:     experiment.Options{Seed: sp.Seed, Parallelism: sp.Parallelism},
	}
}

// parseSubmit accepts both body shapes: the wrapper object (detected by a
// "scenarios" key) and bare scenario-spec JSON.
func parseSubmit(body []byte) (SubmitRequest, error) {
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) == 0 {
		return SubmitRequest{}, fmt.Errorf("empty body")
	}
	if trimmed[0] == '{' {
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(trimmed, &probe); err != nil {
			return SubmitRequest{}, fmt.Errorf("body: %w", err)
		}
		if _, ok := probe["scenarios"]; ok {
			var req SubmitRequest
			if err := decodeStrict(trimmed, &req); err != nil {
				return SubmitRequest{}, fmt.Errorf("body: %w", err)
			}
			if s := bytes.TrimSpace(req.Scenarios); len(s) == 0 || bytes.Equal(s, []byte("null")) {
				return SubmitRequest{}, fmt.Errorf(`"scenarios" is empty`)
			}
			return req, nil
		}
	}
	// Bare spec object or array.
	return SubmitRequest{Scenarios: trimmed}, nil
}

// decodeStrict is json.Unmarshal that also rejects a key v has no field
// for, naming it in the error, so a typo ("parallelsim") fails loudly
// instead of silently running defaults. Malformed JSON gets
// json.Unmarshal's own error.
func decodeStrict(data []byte, v any) error {
	if !json.Valid(data) {
		return json.Unmarshal(data, v)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// handleList merges the store's view (the spine: submission order across
// the store's whole lifetime, including jobs finished by an earlier
// process) with live session handles, which win while a job runs.
// ?state=queued|running|done|failed|cancelled narrows the list to one
// lifecycle state; the filter applies after the merge, so it sees each
// job's freshest state.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	state := r.URL.Query().Get("state")
	switch state {
	case "", jobstore.StateQueued, jobstore.StateRunning, jobstore.StateDone,
		jobstore.StateFailed, jobstore.StateCancelled:
	default:
		httpError(w, http.StatusBadRequest,
			"unknown state %q (want queued, running, done, failed, or cancelled)", state)
		return
	}
	out := []JobInfo{}
	add := func(info JobInfo) {
		if state == "" || info.State == state {
			out = append(out, info)
		}
	}
	seen := map[string]bool{}
	if recs, err := s.store.List(); err == nil {
		for _, rec := range recs {
			seen[rec.ID] = true
			if j, ok := s.session.Job(rec.ID); ok {
				add(s.info(j))
				continue
			}
			if state != "" && rec.State != state {
				continue
			}
			// List gives headers; only a record that is listed needs its
			// result payload read back.
			if full, ok, err := s.store.Get(rec.ID); err == nil && ok {
				rec = full
			}
			add(infoFromRecord(rec))
		}
	}
	// Jobs the session knows but the store doesn't (submitted around the
	// service, or evicted records) still list.
	for _, j := range s.session.Jobs() {
		if !seen[j.ID()] {
			add(s.info(j))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// lookup resolves a job id to its live handle (preferred) or its stored
// record. A 404 has already been written when both come back empty.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*adhocga.Job, jobstore.Record, bool) {
	id := r.PathValue("id")
	if j, ok := s.session.Job(id); ok {
		return j, jobstore.Record{}, true
	}
	if rec, ok, err := s.store.Get(id); err == nil && ok {
		return nil, rec, true
	}
	httpError(w, http.StatusNotFound, "no job %q", id)
	return nil, jobstore.Record{}, false
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, rec, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if j != nil {
		writeJSON(w, http.StatusOK, s.info(j))
		return
	}
	writeJSON(w, http.StatusOK, infoFromRecord(rec))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, rec, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if j == nil {
		// Store-only jobs are terminal; cancelling one is the same no-op
		// as cancelling a finished live job.
		writeJSON(w, http.StatusAccepted, infoFromRecord(rec))
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusAccepted, s.info(j))
}

// handleEvents streams the job's events as NDJSON (archival: full replay
// from the oldest retained event, BlockWithDeadline backpressure) or SSE
// when the client asks for text/event-stream (live viewer: `id:` framed,
// Last-Event-ID resume, drop-to-snapshot resync, `: ping` keepalives).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, rec, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	opts := adhocga.SubscribeOptions{Policy: adhocga.BlockWithDeadline}
	if sse {
		opts.Policy = adhocga.DropResync
		if lei := r.Header.Get("Last-Event-ID"); lei != "" {
			last, err := strconv.Atoi(lei)
			if err != nil || last < 0 {
				httpError(w, http.StatusBadRequest, "bad Last-Event-ID %q", lei)
				return
			}
			opts.From = last + 1
		}
	}
	if j == nil && len(rec.EventLog) == 0 {
		// A recovered job whose log outgrew retention keeps only its
		// digest; verify can still re-derive and check the replay.
		httpError(w, http.StatusGone, "job %s: event log not retained; POST %s to re-derive and check the replay",
			rec.ID, "/v1/jobs/"+rec.ID+"/verify")
		return
	}
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Push the response headers out now: an SSE client on an idle stream
	// must see the connection established before the first event or ping.
	flush()
	send := func(seq int, frame []byte) error {
		var err error
		if sse {
			_, err = fmt.Fprintf(w, "id: %d\ndata: %s\n\n", seq, frame)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", frame)
		}
		flush()
		return err
	}
	if j == nil {
		// Recovered finished job: its stored log goes out through the
		// same send, so the NDJSON is byte-identical to what the original
		// process streamed and the SSE frames match a live stream's. A log
		// is stored only when the hub still held the job's whole history,
		// so line i is the event with sequence i.
		for seq, line := range bytes.Split(bytes.TrimSuffix(rec.EventLog, []byte("\n")), []byte("\n")) {
			if seq >= opts.From && send(seq, line) != nil {
				return
			}
		}
		return
	}
	var ping func() error
	if sse {
		// SSE comment frame: ignored by clients, resets proxy idle timers.
		ping = func() error {
			_, err := io.WriteString(w, ": ping\n\n")
			flush()
			return err
		}
	}
	// The stream detaches when the client goes away or the service shuts
	// down; the job itself is unaffected either way.
	ctx, cancel, stopAfter := s.streamContext(r)
	defer cancel()
	defer stopAfter()
	_ = s.deliver(ctx, j, j.Subscribe(ctx, opts), send, ping)
}

// deliver is the one delivery loop behind NDJSON, SSE and WebSocket: it
// reads sub's cursor and hands every event to send as the job's cached
// frame (the hub marshals each event once, however many streams fan it
// out; frame plus "\n" is byte-identical to json.Encoder.Encode, which the
// goldens pin) and, while waiting for the job, calls ping, when non-nil,
// on every keepalive tick. It returns nil after the terminal event, the
// subscription's error when it ended otherwise, ctx's error once the
// stream is detached, or the first send, ping or framing error.
func (s *Server) deliver(ctx context.Context, j *adhocga.Job, sub *adhocga.Subscription,
	send func(seq int, frame []byte) error, ping func() error) error {
	var tick <-chan time.Time
	if ping != nil {
		c, stop := s.newTicker(s.opts.KeepaliveInterval)
		defer stop()
		tick = c
	}
	for {
		e, wake, err := sub.Next()
		switch {
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		case wake == nil:
			b, err := j.Frame(e)
			if err != nil {
				return err
			}
			if err := send(e.Seq, b); err != nil {
				return err
			}
			continue
		}
		select {
		case <-wake:
		case <-tick:
			if err := ping(); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// handleWS upgrades to WebSocket and streams the job's events as one JSON
// text frame per event — the fan-out path for many concurrent viewers.
// Default is a live subscription (current snapshot, then follow);
// ?after=N resumes after sequence N; ?replay=full replays like the
// archival NDJSON path. The connection closes with code 1000 after the
// terminal event and code 4001 (CloseSlowSubscriber) on a backpressure
// eviction. Client data frames are ignored; pings are answered.
func (s *Server) handleWS(w http.ResponseWriter, r *http.Request) {
	j, rec, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if j == nil {
		httpError(w, http.StatusConflict,
			"job %s was recovered from the store and has no live stream; GET its events instead", rec.ID)
		return
	}
	opts := adhocga.SubscribeOptions{Live: true, Policy: adhocga.DropResync}
	q := r.URL.Query()
	if a := q.Get("after"); a != "" {
		last, err := strconv.Atoi(a)
		if err != nil || last < 0 {
			httpError(w, http.StatusBadRequest, "bad after %q", a)
			return
		}
		opts = adhocga.SubscribeOptions{From: last + 1, Policy: adhocga.DropResync}
	}
	if q.Get("replay") == "full" {
		// Mutate, don't replace: ?after=N combined with ?replay=full must
		// keep the resume point — the client wants a gap-free archival
		// replay starting after the last event it saw.
		opts.Live = false
		opts.Policy = adhocga.BlockWithDeadline
	}
	conn, err := ws.Upgrade(w, r)
	if err != nil {
		if errors.Is(err, ws.ErrNotWebSocket) {
			httpError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	defer conn.Close()
	ctx, cancel, stopAfter := s.streamContext(r)
	defer cancel()
	defer stopAfter()
	sub := j.Subscribe(ctx, opts)
	// Reader goroutine: answers pings, detects the client going away (or
	// sending a close), and detaches the subscription either way.
	go func() {
		defer cancel()
		for {
			if _, _, err := conn.NextMessage(); err != nil {
				return
			}
		}
	}()
	err = s.deliver(ctx, j, sub,
		func(_ int, frame []byte) error { return conn.WriteText(frame) },
		func() error { return conn.WritePing(nil) })
	switch {
	case err == nil: // terminal event delivered
		conn.WriteClose(ws.CloseNormal, "job stream complete")
	case errors.Is(err, adhocga.ErrSlowSubscriber):
		conn.WriteClose(CloseSlowSubscriber, "not draining; reconnect with ?after=")
	case ctx.Err() != nil:
		// Detached without a terminal event — service shutdown,
		// typically. A close frame lets the client tell "server going
		// away" from a network fault.
		conn.WriteClose(ws.CloseGoingAway, "going away")
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
