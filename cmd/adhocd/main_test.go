package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read the daemon's stdout while run() is still
// writing it from its own goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonEndToEnd boots adhocd on a free port, submits a smoke job over
// real HTTP, streams its events, and shuts the daemon down via context
// cancellation (the SIGINT path).
func TestDaemonEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-scale", "smoke", "-max-jobs", "2"}, &stdout, &stderr)
	}()

	// Wait for the listen line and extract the bound address.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stdout %q stderr %q", stdout.String(), stderr.String())
		}
		out := stdout.String()
		if i := strings.Index(out, "listening on "); i >= 0 {
			rest := out[i+len("listening on "):]
			addr = strings.Fields(rest)[0]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	base := "http://" + addr
	if want := fmt.Sprintf("gomaxprocs %d)", runtime.GOMAXPROCS(0)); !strings.Contains(stdout.String(), want) {
		t.Errorf("startup line %q does not report %q", stdout.String(), want)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	spec := `{"scenarios": {"name": "d", "environments": [{"csn": 0}], "population": 20,
	          "tournament_size": 10, "generations": 2, "rounds": 10, "repetitions": 1, "seed": 3},
	          "parallelism": 1}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var info struct {
		ID        string `json:"id"`
		EventsURL string `json:"events_url"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}

	// The stream follows the job live and ends after the done event.
	resp, err = http.Get(base + info.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(stream), `"kind":"done"`) {
		t.Errorf("stream missing done event:\n%s", stream)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exited %d; stderr %q", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if out := stdout.String(); !strings.Contains(out, "stopped") {
		t.Errorf("shutdown message missing:\n%s", out)
	}
}

func TestDaemonFlagValidation(t *testing.T) {
	ctx := context.Background()
	var stdout, stderr syncBuffer
	if code := run(ctx, []string{"-scale", "galactic"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad scale: exit %d", code)
	}
	if !strings.Contains(stderr.String(), "unknown scale") {
		t.Errorf("stderr %q", stderr.String())
	}
	stderr = syncBuffer{}
	if code := run(ctx, []string{"-max-jobs", "-1"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad max-jobs: exit %d", code)
	}
	stderr = syncBuffer{}
	if code := run(ctx, []string{"-log-level", "loud"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad log-level: exit %d", code)
	}
	if !strings.Contains(stderr.String(), "-log-level") {
		t.Errorf("stderr %q", stderr.String())
	}
	stderr = syncBuffer{}
	if code := run(ctx, []string{"-log-format", "xml"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad log-format: exit %d", code)
	}
	if !strings.Contains(stderr.String(), "-log-format") {
		t.Errorf("stderr %q", stderr.String())
	}
	stderr = syncBuffer{}
	if code := run(ctx, []string{"-addr", "256.0.0.1:bad"}, &stdout, &stderr); code != 1 {
		t.Errorf("bad addr: exit %d", code)
	}
	stderr = syncBuffer{}
	if code := run(ctx, []string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h: exit %d", code)
	}
}

// TestDaemonObservabilityFlags boots the daemon with the full
// observability surface on — JSON debug logs, pprof, file store — and
// scrapes it: /metrics must serve Prometheus text with the WAL family,
// /healthz must vouch for the registry, /debug/pprof/ must answer, and
// stderr must carry structured JSON log lines.
func TestDaemonObservabilityFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-scale", "smoke",
			"-log-level", "debug", "-log-format", "json", "-pprof",
			"-store", "file", "-data-dir", t.TempDir()}, &stdout, &stderr)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stdout %q stderr %q", stdout.String(), stderr.String())
		}
		out := stdout.String()
		if i := strings.Index(out, "listening on "); i >= 0 {
			addr = strings.Fields(out[i+len("listening on "):])[0]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	base := "http://" + addr

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"metrics_ok": true`) {
		t.Errorf("healthz: %d %s", code, body)
	}
	code, metrics := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"adhocd_jobs_submitted_total 0",
		"# TYPE adhocd_wal_fsync_seconds histogram",
		`adhocd_jobs{state="running"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof cmdline: %d", code)
	}

	// The recovery pass logs through the JSON handler before the listen
	// line is printed, so stderr already carries structured lines.
	if logs := stderr.String(); !strings.Contains(logs, `"msg":"recovery complete"`) {
		t.Errorf("no structured JSON log lines on stderr: %q", logs)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exited %d; stderr %q", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestDaemonHelpListsEndpoints keeps the usage text honest about the API.
func TestDaemonHelpListsEndpoints(t *testing.T) {
	var stdout, stderr syncBuffer
	run(context.Background(), []string{"-h"}, &stdout, &stderr)
	for _, flagName := range []string{"-addr", "-pool", "-max-jobs", "-scale"} {
		if !strings.Contains(stderr.String(), strings.TrimPrefix(flagName, "-")) {
			t.Errorf("help missing %s", flagName)
		}
	}
}

// startInProcDaemon boots run() with the given extra flags on a free port and
// returns the base URL plus a shutdown func that asserts a clean exit.
func startInProcDaemon(t *testing.T, extra ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-scale", "smoke"}, extra...)
	go func() { done <- run(ctx, args, &stdout, &stderr) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never announced its address; stdout %q stderr %q", stdout.String(), stderr.String())
		}
		out := stdout.String()
		if i := strings.Index(out, "listening on "); i >= 0 {
			addr := strings.Fields(out[i+len("listening on "):])[0]
			return "http://" + addr, func() {
				cancel()
				select {
				case code := <-done:
					if code != 0 {
						t.Errorf("daemon exited %d; stderr %q", code, stderr.String())
					}
				case <-time.After(30 * time.Second):
					t.Error("daemon did not shut down")
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDaemonChampionsFlag covers the -champions wiring end to end: a
// checkpointed job harvests champions into the file-backed archive, a
// league job plays them, and a restart on the same data dir serves the
// same hall of fame — while a daemon without the flag 503s the surface.
func TestDaemonChampionsFlag(t *testing.T) {
	get := func(base, path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, body
	}

	// Without the flag the league surface is explicitly unavailable.
	base, stop := startInProcDaemon(t)
	if code, body := get(base, "/v1/champions"); code != http.StatusServiceUnavailable {
		t.Fatalf("champions without -champions: %d %s", code, body)
	}
	stop()

	dataDir := t.TempDir()
	base, stop = startInProcDaemon(t, "-champions", "-store", "file", "-data-dir", dataDir)
	spec := `{"scenarios": {"name": "d", "environments": [{"csn": 0}], "population": 20,
	          "tournament_size": 10, "generations": 2, "rounds": 10, "repetitions": 1,
	          "seed": 3, "checkpoints": 1},
	          "parallelism": 1}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var harvest struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &harvest); err != nil {
		t.Fatal(err)
	}

	// Every checkpoint is archived before its job turns done, so the
	// champion count is final only then: reading it earlier races the
	// job's remaining checkpoints.
	deadline := time.Now().Add(30 * time.Second)
	for harvest.State != "done" {
		if harvest.State == "failed" || harvest.State == "cancelled" {
			t.Fatalf("harvest job ended %q", harvest.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("harvest job stuck in %q", harvest.State)
		}
		time.Sleep(10 * time.Millisecond)
		if code, body := get(base, "/v1/jobs/"+harvest.ID); code == http.StatusOK {
			if err := json.Unmarshal(body, &harvest); err != nil {
				t.Fatal(err)
			}
		}
	}
	var champs struct {
		Count   int    `json:"count"`
		Archive string `json:"archive"`
	}
	code, body := get(base, "/v1/champions")
	if code != http.StatusOK {
		t.Fatalf("champions: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &champs); err != nil {
		t.Fatal(err)
	}
	if champs.Count == 0 {
		t.Fatal("no champions harvested")
	}
	if champs.Archive != "file" {
		t.Fatalf("archive backend %q, want file", champs.Archive)
	}
	harvested := champs.Count

	resp, err = http.Post(base+"/v1/league", "application/json",
		strings.NewReader(`{"baselines": true, "per_side": 2, "matches_per_pair": 1, "rounds": 10, "seed": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("league submit: %d %s", resp.StatusCode, body)
	}
	var league struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &league); err != nil {
		t.Fatal(err)
	}
	var job struct {
		State  string `json:"state"`
		League *struct {
			Seats []string `json:"seats"`
		} `json:"league"`
	}
	for job.State != "done" && job.State != "failed" {
		if time.Now().After(deadline) {
			t.Fatalf("league job stuck in %q", job.State)
		}
		if code, body := get(base, "/v1/jobs/"+league.ID); code == http.StatusOK {
			if err := json.Unmarshal(body, &job); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.State != "done" || job.League == nil {
		t.Fatalf("league job state %q, table %v", job.State, job.League != nil)
	}
	if want := harvested + 3; len(job.League.Seats) != want {
		t.Fatalf("league seated %d, want %d champions + 3 baselines", len(job.League.Seats), want)
	}
	stop()

	// Restart on the same data dir: the hall of fame survives.
	base, stop = startInProcDaemon(t, "-champions", "-store", "file", "-data-dir", dataDir)
	defer stop()
	code, body = get(base, "/v1/champions")
	if code != http.StatusOK {
		t.Fatalf("champions after restart: %d %s", code, body)
	}
	champs.Count = 0
	if err := json.Unmarshal(body, &champs); err != nil {
		t.Fatal(err)
	}
	if champs.Count != harvested {
		t.Fatalf("restarted archive has %d champions, want %d", champs.Count, harvested)
	}
}
