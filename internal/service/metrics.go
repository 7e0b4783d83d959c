package service

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"adhocga"
	"adhocga/internal/jobstore"
	"adhocga/internal/obs"
)

// The service's observability wiring. Almost everything here is a pull
// collector: the layers below (session, hub, jobstore, runner pool)
// already keep their counters in private structs behind cheap stats
// methods, so the registry polls them at scrape time and the hot paths
// pay nothing between scrapes — which is how the instrumented daemon
// stays inside the benchgate budget. The only push instruments are the
// per-request route/status counter (one atomic increment per finished
// request), the verify-outcome counter, and the WAL fsync latency
// histogram fed through jobstore's OnFsync hook.
//
// Cardinality rules (see also internal/obs): label values come from
// bounded sets — route patterns, job states, verify verdicts. The per-job
// series (adhocd_job_events, adhocd_job_subscribers) are the deliberate
// exception: they enumerate only jobs still reachable and non-terminal at
// scrape time, so a job's series retire once it finishes and retention
// prunes it — a long-lived daemon's exposition stays bounded by the
// retention limit, not by lifetime job count.

// handle registers a route with request counting: every completed request
// increments adhocd_http_requests_total{route, code}, with the route
// pattern (not the concrete path — bounded cardinality) as the label.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		code := rec.status
		if code == 0 {
			// The handler wrote a body (or nothing) without an explicit
			// WriteHeader; net/http sends 200 for that.
			code = http.StatusOK
		}
		s.requests.With(pattern, strconv.Itoa(code)).Inc()
	})
}

// statusRecorder captures the response status code while forwarding the
// streaming capabilities the handlers rely on: Flush for SSE/NDJSON and
// Hijack for the WebSocket upgrade.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *statusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := r.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, fmt.Errorf("service: underlying ResponseWriter does not support hijacking")
	}
	conn, rw, err := hj.Hijack()
	if err == nil && r.status == 0 {
		// A successful hijack is the WebSocket upgrade completing.
		r.status = http.StatusSwitchingProtocols
	}
	return conn, rw, err
}

// registerMetrics installs every collector on the server's registry.
// Called once from New.
func (s *Server) registerMetrics() {
	m := s.metrics

	// Push instruments.
	s.requests = m.CounterVec("adhocd_http_requests_total",
		"Completed HTTP requests by route pattern and status code.", "route", "code")
	s.verifies = m.CounterVec("adhocd_verify_total",
		"Verify replays by verdict (match, mismatch, error).", "verdict")
	s.leagueRuns = m.Counter("adhoc_league_runs_total",
		"League jobs accepted via POST /v1/league.")
	s.leagueMatches = m.Counter("adhoc_league_matches_total",
		"Matches played by finished league jobs.")

	// Champion archive census, when one is configured.
	if a := s.session.Champions(); a != nil {
		m.GaugeFunc("adhoc_champions",
			"Champions currently in the hall-of-fame archive.",
			func() float64 { return float64(a.Len()) })
		m.GaugeFunc("adhoc_champions_skipped",
			"Corrupt or foreign records skipped while loading the champion archive.",
			func() float64 { return float64(a.Skipped()) })
	}

	// Session census.
	m.CounterFunc("adhocd_jobs_submitted_total",
		"Jobs accepted by the session over its lifetime.",
		func() float64 { return float64(s.session.Stats().Submitted) })
	m.GaugeVecFunc("adhocd_jobs",
		"Currently reachable jobs by lifecycle state.", []string{"state"},
		func() []obs.LabeledValue {
			st := s.session.Stats()
			return []obs.LabeledValue{
				{Labels: []string{"queued"}, Value: float64(st.Queued)},
				{Labels: []string{"running"}, Value: float64(st.Running)},
				{Labels: []string{"done"}, Value: float64(st.Done)},
				{Labels: []string{"failed"}, Value: float64(st.Failed)},
				{Labels: []string{"cancelled"}, Value: float64(st.Cancelled)},
			}
		})
	m.GaugeFunc("adhocd_pool_slots",
		"Execution pool capacity (replicate units that can run at once).",
		func() float64 { return float64(s.session.Stats().PoolSize) })
	m.GaugeFunc("adhocd_gomaxprocs",
		"Go scheduler slots (GOMAXPROCS); the server keeps one beyond the pool for I/O.",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
	m.GaugeFunc("adhocd_pool_busy",
		"Execution pool slots currently held by running tasks.",
		func() float64 { return float64(s.session.Stats().PoolBusy) })

	// Streaming hub totals, aggregated across every job the session ran.
	m.CounterFunc("adhocd_stream_events_emitted_total",
		"Events emitted across all job hubs.",
		func() float64 { return float64(s.session.StreamTotals().Emitted) })
	m.CounterFunc("adhocd_stream_events_overwritten_total",
		"Emitted events lapped out of their ring (retained only as snapshot entries).",
		func() float64 { return float64(s.session.StreamTotals().Overwritten) })
	m.GaugeFunc("adhocd_stream_subscribers",
		"Currently attached stream subscriptions across all jobs.",
		func() float64 { return float64(s.session.StreamTotals().Subscribers) })
	m.CounterFunc("adhocd_stream_resyncs_total",
		"Lapped live viewers skipped ahead via the compacted snapshot.",
		func() float64 { return float64(s.session.StreamTotals().Resyncs) })
	m.CounterFunc("adhocd_stream_evictions_total",
		"Subscribers evicted by backpressure.",
		func() float64 { return float64(s.session.StreamTotals().Evictions) })
	m.GaugeFunc("adhocd_stream_max_stall_seconds",
		"Longest a producer append waited on BlockWithDeadline subscribers.",
		func() float64 { return s.session.StreamTotals().MaxStall.Seconds() })

	// Per-job series — the retiring kind: only reachable, non-terminal
	// jobs are enumerated, so cardinality is bounded by the session's
	// concurrency, not by lifetime job count.
	m.GaugeVecFunc("adhocd_job_events",
		"Events emitted so far, per live (non-terminal) job.", []string{"job"},
		func() []obs.LabeledValue {
			return s.perJob(func(st adhocga.StreamStats) float64 { return float64(st.Emitted) })
		})
	m.GaugeVecFunc("adhocd_job_subscribers",
		"Attached subscribers, per live (non-terminal) job.", []string{"job"},
		func() []obs.LabeledValue {
			return s.perJob(func(st adhocga.StreamStats) float64 { return float64(st.Subscribers) })
		})

	// Durable tier.
	m.GaugeFunc("adhocd_persist_watchers",
		"Persistence watcher goroutines waiting to finalize live jobs.",
		func() float64 { return float64(s.pendingWatches.Load()) })
	m.GaugeFunc("adhocd_recovered_jobs",
		"Records loaded from the store by the startup Recover pass.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.recovered)
		})
	m.GaugeFunc("adhocd_resumed_jobs",
		"Unfinished records re-submitted by the startup Recover pass.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.resumed)
		})
	m.GaugeFunc("adhocd_store_records",
		"Job records currently in the store.",
		func() float64 { return float64(s.store.Len()) })

	// WAL backend internals, when the file store is configured.
	if fs, ok := s.store.(*jobstore.File); ok {
		fsyncLat := m.Histogram("adhocd_wal_fsync_seconds",
			"Latency of synchronous WAL fsyncs (record creation and state transitions).", nil)
		fs.OnFsync(func(d time.Duration) { fsyncLat.Observe(d.Seconds()) })
		m.CounterFunc("adhocd_wal_appends_total",
			"WAL lines appended since open.",
			func() float64 { return float64(fs.Stats().Appends) })
		m.CounterFunc("adhocd_wal_fsyncs_total",
			"WAL appends made durable synchronously.",
			func() float64 { return float64(fs.Stats().Fsyncs) })
		m.CounterFunc("adhocd_wal_compactions_total",
			"WAL compaction rewrites since open.",
			func() float64 { return float64(fs.Stats().Compactions) })
		m.GaugeFunc("adhocd_wal_torn_entries_skipped",
			"Corrupt WAL entries recovery skipped when the store was opened.",
			func() float64 { return float64(fs.Stats().TornSkipped) })
		m.GaugeFunc("adhocd_wal_bytes",
			"Current WAL file size.",
			func() float64 { return float64(fs.Stats().TotalBytes) })
		m.GaugeFunc("adhocd_wal_live_bytes",
			"Encoded size of the live record set (a fresh compaction's output).",
			func() float64 { return float64(fs.Stats().LiveBytes) })
	}
}

// perJob renders one sample per reachable non-terminal job. Terminal jobs
// are excluded on purpose: their series retire at the scrape after they
// finish, keeping the exposition's cardinality bounded.
func (s *Server) perJob(value func(adhocga.StreamStats) float64) []obs.LabeledValue {
	jobs := s.session.Jobs()
	out := make([]obs.LabeledValue, 0, len(jobs))
	for _, j := range jobs {
		if j.State().Terminal() {
			continue
		}
		out = append(out, obs.LabeledValue{Labels: []string{j.ID()}, Value: value(j.StreamStats())})
	}
	return out
}

// registerPprof mounts the standard pprof handlers on the server's own
// mux (explicitly, not via the DefaultServeMux side effect of importing
// net/http/pprof in a main package).
func (s *Server) registerPprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
