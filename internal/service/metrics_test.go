package service

// Tests for the observability surface: the /metrics exposition across a
// full job lifecycle (submit → stream → terminal → verify → restart +
// recover), per-job series retirement, request counting, the WAL
// instrumentation, and the pprof opt-in.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"adhocga"
	"adhocga/internal/jobstore"
)

// scrapeMetrics pulls /metrics and parses every sample line into a
// series → value map keyed exactly as rendered ("name" or
// `name{label="v"}`). Malformed lines fail the test, so every scrape is
// also a format check.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	_, body := doJSON(t, http.MethodGet, base+"/metrics", "")
	series := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		series[line[:i]] = v
	}
	return series
}

// waitMetric polls until pred over a fresh scrape holds, or fails after
// ten seconds.
func waitMetric(t *testing.T, base, what string, pred func(map[string]float64) bool) map[string]float64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := scrapeMetrics(t, base)
		if pred(m) {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; last scrape: %v", what, m)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMetricsLifecycle walks one daemon life end to end against a file
// store and asserts the exposition moves with it: submission and request
// counters, per-job series while a job is live (and their retirement once
// it turns terminal), stream/WAL/verify instrumentation after a finished
// deterministic job, watcher drain, and — after a simulated restart over
// the same directory — the recovery gauges of the second life.
func TestMetricsLifecycle(t *testing.T) {
	dir := t.TempDir()
	store, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	session := adhocga.NewSession()
	server := New(session, Options{Store: store})
	srv := httptest.NewServer(server)

	// Before any traffic: a valid, annotated exposition with zeroed
	// counters. (The scrape itself is the first request, so the request
	// counter is checked later, after it has something to say.)
	_, raw := doJSON(t, http.MethodGet, srv.URL+"/metrics", "")
	for _, want := range []string{
		"# HELP adhocd_jobs_submitted_total ",
		"# TYPE adhocd_jobs_submitted_total counter",
		"# TYPE adhocd_wal_fsync_seconds histogram",
		"# TYPE adhocd_pool_slots gauge",
		"# TYPE adhocd_gomaxprocs gauge",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("initial exposition missing %q", want)
		}
	}
	m := scrapeMetrics(t, srv.URL)
	if m["adhocd_jobs_submitted_total"] != 0 {
		t.Errorf("fresh daemon reports %v submitted jobs", m["adhocd_jobs_submitted_total"])
	}

	// A long-running job: while it is live its per-job series are
	// exposed and its persistence watcher is counted.
	code, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs",
		fmt.Sprintf(`{"scenarios": %s, "parallelism": 1, "scale": "smoke"}`, longSpec))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	longID := jobIDOf(t, body)
	perJobKey := fmt.Sprintf("adhocd_job_events{job=%q}", longID)
	m = waitMetric(t, srv.URL, "live per-job series", func(m map[string]float64) bool {
		return m[perJobKey] > 0
	})
	if m["adhocd_persist_watchers"] != 1 {
		t.Errorf("one live job, %v watchers", m["adhocd_persist_watchers"])
	}
	if m["adhocd_jobs{state=\"running\"}"] != 1 {
		t.Errorf("running gauge %v, want 1", m["adhocd_jobs{state=\"running\"}"])
	}

	// Terminal jobs retire their series: cancel it and the per-job
	// samples must vanish from the next scrapes.
	if code, _ := doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/"+longID, ""); code != http.StatusAccepted {
		t.Fatalf("cancel: %d", code)
	}
	waitState(t, srv.URL, longID)
	m = scrapeMetrics(t, srv.URL)
	if _, ok := m[perJobKey]; ok {
		t.Errorf("per-job series %s survived the job turning terminal", perJobKey)
	}

	// A deterministic smoke job run to completion, streamed, and
	// verified: the whole pipeline shows up in the counters.
	info := submitSmoke(t, srv.URL, 1)
	waitState(t, srv.URL, info.ID)
	if code, _ := doJSON(t, http.MethodGet, srv.URL+info.EventsURL, ""); code != http.StatusOK {
		t.Fatalf("stream: %d", code)
	}
	waitRecord(t, store, info.ID)
	if code, report := verifyJob(t, srv.URL, info.ID); code != http.StatusOK || report.Verdict != "match" {
		t.Fatalf("verify: %d %+v", code, report)
	}

	m = waitMetric(t, srv.URL, "watcher drain", func(m map[string]float64) bool {
		return m["adhocd_persist_watchers"] == 0
	})
	checks := []struct {
		series string
		min    float64
	}{
		{"adhocd_jobs_submitted_total", 2},
		{"adhocd_http_requests_total{route=\"POST /v1/jobs\",code=\"202\"}", 2},
		{"adhocd_http_requests_total{route=\"GET /v1/jobs/{id}/events\",code=\"200\"}", 1},
		{"adhocd_stream_events_emitted_total", 1},
		{"adhocd_verify_total{verdict=\"match\"}", 1},
		{"adhocd_wal_appends_total", 2},
		{"adhocd_wal_fsyncs_total", 2},
		{"adhocd_wal_fsync_seconds_count", 2},
		{"adhocd_wal_bytes", 1},
		{"adhocd_store_records", 2},
		{"adhocd_jobs{state=\"done\"}", 1},
		{"adhocd_jobs{state=\"cancelled\"}", 1},
	}
	for _, c := range checks {
		if got, ok := m[c.series]; !ok || got < c.min {
			t.Errorf("%s = %v (present %v), want >= %v", c.series, got, ok, c.min)
		}
	}
	// The histogram's cumulative count must agree with its series count,
	// and the +Inf bucket with the total.
	if inf := m["adhocd_wal_fsync_seconds_bucket{le=\"+Inf\"}"]; inf != m["adhocd_wal_fsync_seconds_count"] {
		t.Errorf("+Inf bucket %v != count %v", inf, m["adhocd_wal_fsync_seconds_count"])
	}

	// /healthz vouches for the registry.
	code, body = doJSON(t, http.MethodGet, srv.URL+"/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if !strings.Contains(string(body), `"metrics_ok": true`) {
		t.Errorf("healthz does not vouch for metrics: %s", body)
	}

	// Restart: same directory, fresh session/server/registry. The second
	// life's recovery pass is visible in its gauges.
	srv.Close()
	session.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	session2 := adhocga.NewSession()
	server2 := New(session2, Options{Store: store2})
	if _, _, err := server2.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(server2)
	t.Cleanup(func() {
		srv2.Close()
		session2.Close()
		store2.Close()
	})
	m = scrapeMetrics(t, srv2.URL)
	if m["adhocd_recovered_jobs"] != 2 {
		t.Errorf("recovered_jobs %v, want 2", m["adhocd_recovered_jobs"])
	}
	if m["adhocd_resumed_jobs"] != 0 {
		t.Errorf("resumed_jobs %v, want 0 (both records terminal)", m["adhocd_resumed_jobs"])
	}
	if m["adhocd_store_records"] != 2 {
		t.Errorf("store_records %v, want 2 after restart", m["adhocd_store_records"])
	}
}

// jobIDOf decodes a submission response's job ID.
func jobIDOf(t *testing.T, body []byte) string {
	t.Helper()
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("job info %s: %v", body, err)
	}
	return info.ID
}

// TestPprofOptIn: the profiling endpoints exist only behind EnablePprof.
func TestPprofOptIn(t *testing.T) {
	srv, _ := newTestServer(t)
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/debug/pprof/", ""); code != http.StatusNotFound {
		t.Errorf("pprof mounted without opt-in: %d", code)
	}

	session := adhocga.NewSession()
	t.Cleanup(session.Close)
	srv2 := httptest.NewServer(New(session, Options{EnablePprof: true}))
	t.Cleanup(srv2.Close)
	code, body := doJSON(t, http.MethodGet, srv2.URL+"/debug/pprof/", "")
	if code != http.StatusOK {
		t.Fatalf("pprof index with opt-in: %d", code)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index unrecognizable: %.120s", body)
	}
}
