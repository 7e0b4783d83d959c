// Command adhocd serves the evolutionary-experiment job API over HTTP: a
// long-lived Session with a bounded execution pool, fronted by the
// internal/service layer. Clients POST the same declarative scenario-spec
// JSON the CLIs' -scenario flag accepts, poll job status, and stream
// per-generation events as NDJSON or SSE while the GA runs.
//
// The pool bounds every CPU-bound goroutine of every job, island
// evaluations and league matches included, and the session keeps one Go
// scheduler slot (P) beyond it, raising GOMAXPROCS to min(pool, cores)+1
// when it is lower, so submits, handshakes, status calls and event
// streams are answered while every pool slot computes. An explicit
// GOMAXPROCS environment setting is left alone.
//
// Usage:
//
//	adhocd                                  # listen on :8547, pool = all cores
//	adhocd -addr 127.0.0.1:9000 -pool 8 -max-jobs 4 -scale smoke
//	adhocd -ring 4096 -keepalive 30s
//
// Submit, watch, and cancel with curl:
//
//	curl -s localhost:8547/v1/jobs -d '{"scenarios": {"name": "demo",
//	      "environments": [{"csn": 10}], "seed": 1}, "scale": "smoke"}'
//	curl -s localhost:8547/v1/jobs/job-1
//	curl -N localhost:8547/v1/jobs/job-1/events
//	curl -s -X DELETE localhost:8547/v1/jobs/job-1
//
// Events also stream over WebSocket (live fan-out for many viewers) at
// /v1/jobs/{id}/ws; see the README quickstart. The -ring flag sizes each
// job's streaming hub; -keepalive sets the idle SSE/WebSocket ping
// interval.
//
// With -store file, every job is persisted to a write-ahead log under
// -data-dir and the daemon is restart-safe: on boot it reloads the log,
// serves finished jobs (status, results, archived event replays) without
// recompute, and re-runs jobs a crash interrupted from their recorded
// (seed, spec) — bit-identical, by the determinism contract. Any finished
// job can later be re-checked with POST /v1/jobs/{id}/verify:
//
//	adhocd -store file -data-dir /var/lib/adhocd
//	curl -s -X POST localhost:8547/v1/jobs/job-1/verify
//
// The daemon is observable without extra dependencies: GET /metrics
// serves Prometheus text exposition (HTTP, jobs, streaming, pool, and —
// with -store file — WAL internals), /healthz reports metrics_ok
// alongside the store and recovery census, -log-level and -log-format
// control the structured slog output on stderr (correlated by job ID),
// and -pprof mounts net/http/pprof under /debug/pprof/:
//
//	adhocd -log-level debug -log-format json -pprof
//	curl -s localhost:8547/metrics
//
// With -champions, the daemon keeps a hall-of-fame champion archive: any
// job whose scenarios set "checkpoints" archives its best strategy at
// each checkpoint generation, GET /v1/champions lists the archive, and
// POST /v1/league seats selected champions (plus scripted baselines) in a
// cross-generation round-robin league. Under -store file the archive is
// its own WAL at <data-dir>/champions and survives restarts:
//
//	adhocd -champions -store file -data-dir /var/lib/adhocd
//	curl -s localhost:8547/v1/champions
//	curl -s localhost:8547/v1/league -d '{"baselines": true, "seed": 7}'
//
// SIGINT/SIGTERM shut the daemon down gracefully: the listener drains,
// open event streams are closed first (WebSocket viewers get close frame
// 1011 "going away"), every running job is cancelled at its next
// generation barrier, and the process exits once all jobs have stopped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"adhocga"
	"adhocga/internal/experiment"
	"adhocga/internal/jobstore"
	"adhocga/internal/service"
)

// version is the build identifier /healthz reports; override at link time
// with -ldflags "-X main.version=v1.2.3".
var version = "dev"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole daemon behind a testable seam: flags from args, output
// to explicit writers, lifetime bound to ctx. It blocks until ctx is
// cancelled (or the listener fails), then shuts down gracefully.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adhocd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8547", "listen address (host:port; port 0 picks a free one)")
		pool      = fs.Int("pool", 0, "execution pool slots shared by all jobs (0 = all cores); the server keeps one P beyond the pool for I/O")
		maxJobs   = fs.Int("max-jobs", 4, "jobs running concurrently; further submissions queue (0 = unbounded)")
		retain    = fs.Int("retain", 256, "finished jobs kept queryable; older ones are evicted (0 = keep all)")
		scaleName = fs.String("scale", "default", "default scale for submissions that pin none: smoke, default, or paper")
		drain     = fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight HTTP requests")
		ring      = fs.Int("ring", adhocga.DefaultRingSize, "events each job retains for replay/catch-up (its ring buffer size)")
		keepalive = fs.Duration("keepalive", 15*time.Second, "idle SSE/WebSocket keepalive ping interval")
		storeKind = fs.String("store", "mem", "job persistence backend: mem (gone on exit) or file (WAL under -data-dir, restart-safe)")
		dataDir   = fs.String("data-dir", "adhocd-data", "directory for the file store's write-ahead log")
		champions = fs.Bool("champions", false, "keep a hall-of-fame champion archive and serve /v1/champions and /v1/league (persisted under <data-dir>/champions with -store file)")
		logLevel  = fs.String("log-level", "info", "structured log threshold: debug, info, warn, or error")
		logFormat = fs.String("log-format", "text", "structured log encoding on stderr: text or json")
		pprofOn   = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (profiles expose internals; enable deliberately)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	sc, err := experiment.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *maxJobs < 0 {
		fmt.Fprintln(stderr, "adhocd: -max-jobs must be >= 0")
		return 2
	}
	if *ring < 0 || *keepalive < 0 {
		fmt.Fprintln(stderr, "adhocd: -ring and -keepalive must be >= 0")
		return 2
	}
	var level slog.Level
	switch *logLevel {
	case "debug":
		level = slog.LevelDebug
	case "info":
		level = slog.LevelInfo
	case "warn":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		fmt.Fprintf(stderr, "adhocd: -log-level must be debug, info, warn, or error, got %q\n", *logLevel)
		return 2
	}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level})
	case "json":
		handler = slog.NewJSONHandler(stderr, &slog.HandlerOptions{Level: level})
	default:
		fmt.Fprintf(stderr, "adhocd: -log-format must be text or json, got %q\n", *logFormat)
		return 2
	}
	logger := slog.New(handler)

	var store jobstore.Store
	switch *storeKind {
	case "mem":
		store = jobstore.NewMem()
	case "file":
		fileStore, err := jobstore.OpenFile(*dataDir)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if n := fileStore.Skipped(); n > 0 {
			fmt.Fprintf(stderr, "adhocd: skipped %d corrupt WAL entries in %s\n", n, *dataDir)
		}
		store = fileStore
	default:
		fmt.Fprintf(stderr, "adhocd: -store must be mem or file, got %q\n", *storeKind)
		return 2
	}
	defer store.Close()

	// The champion archive shares the store's durability story: its own
	// WAL directory next to the job log under -store file, memory-only
	// otherwise.
	var archive *adhocga.ChampionArchive
	if *champions {
		if *storeKind == "file" {
			archive, err = adhocga.OpenChampionArchive(filepath.Join(*dataDir, "champions"))
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			if n := archive.Skipped(); n > 0 {
				fmt.Fprintf(stderr, "adhocd: skipped %d corrupt champion records in %s\n", n, filepath.Join(*dataDir, "champions"))
			}
		} else {
			archive = adhocga.NewChampionArchive()
		}
		defer archive.Close()
	}

	sessionOpts := []adhocga.SessionOption{
		adhocga.WithPoolSize(*pool),
		adhocga.WithMaxConcurrentJobs(*maxJobs),
		adhocga.WithDefaultScale(sc),
		adhocga.WithJobRetention(*retain),
		adhocga.WithHubConfig(adhocga.HubConfig{RingSize: *ring}),
		adhocga.WithLogger(logger),
	}
	if archive != nil {
		sessionOpts = append(sessionOpts, adhocga.WithChampionArchive(archive))
	}
	session := adhocga.NewSession(sessionOpts...)
	defer session.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	svc := service.New(session, service.Options{
		KeepaliveInterval: *keepalive,
		Store:             store,
		Version:           version,
		Logger:            logger,
		EnablePprof:       *pprofOn,
	})
	// Reload persisted jobs before the first request can race them:
	// finished records serve from the store, interrupted ones re-run from
	// their recorded (seed, spec).
	recovered, resumed, err := svc.Recover(ctx)
	if err != nil {
		fmt.Fprintln(stderr, err)
		ln.Close()
		return 1
	}
	server := &http.Server{Handler: svc}
	fmt.Fprintf(stdout, "adhocd listening on %s (pool %d, max jobs %d, scale %s, store %s, gomaxprocs %d)\n",
		ln.Addr(), session.PoolSize(), *maxJobs, sc.Name, store.Backend(), runtime.GOMAXPROCS(0))
	if recovered > 0 {
		fmt.Fprintf(stdout, "adhocd: recovered %d persisted jobs, resumed %d unfinished\n", recovered, resumed)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "adhocd: shutting down — draining requests, cancelling jobs at their next generation barrier")
	// Streams first: hijacked WebSocket connections get their 1011 close
	// frame and SSE/NDJSON handlers return, so the drain below only waits
	// on plain request/response work.
	svc.Shutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(stderr, err)
	}
	session.Close() // cancels and waits for every job
	fmt.Fprintln(stdout, "adhocd: stopped")
	return 0
}
