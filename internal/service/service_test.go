package service

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adhocga"
	"adhocga/internal/jobstore"
)

var update = flag.Bool("update", false, "rewrite golden files")

// smokeSpec is the fixed-seed scenario behind the golden stream: small
// enough for milliseconds, deterministic because the seed is pinned and
// the submission runs at parallelism 1.
const smokeSpec = `{
  "name": "svc-smoke",
  "environments": [{"csn": 0}],
  "population": 20,
  "tournament_size": 10,
  "generations": 2,
  "rounds": 10,
  "repetitions": 2,
  "seed": 42
}`

// longSpec runs effectively forever (at test scale) so cancellation tests
// have something to kill.
const longSpec = `{
  "name": "svc-long",
  "environments": [{"csn": 0}],
  "population": 20,
  "tournament_size": 10,
  "generations": 500000,
  "rounds": 10,
  "repetitions": 1,
  "seed": 7
}`

// newTestServer builds a fresh session (deterministic job IDs) and an
// httptest server over it.
func newTestServer(t *testing.T, opts ...adhocga.SessionOption) (*httptest.Server, *adhocga.Session) {
	t.Helper()
	session := adhocga.NewSession(opts...)
	srv := httptest.NewServer(New(session, Options{}))
	t.Cleanup(func() {
		srv.Close()
		session.Close()
	})
	return srv, session
}

func doJSON(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// waitState polls a job's status endpoint until it reaches a terminal
// state (or the deadline trips).
func waitState(t *testing.T, base, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, body := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var info JobInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if adhocga.JobState(info.State).Terminal() {
			return info
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return JobInfo{}
}

// TestServiceEndToEndGolden drives adhocd's whole submit → status → stream
// path over HTTP and byte-compares the NDJSON event stream against the
// checked-in golden: at a fixed seed and parallelism 1 the stream is a
// deterministic artifact, timestamps and all other nondeterminism having
// been deliberately kept out of the event model.
func TestServiceEndToEndGolden(t *testing.T) {
	srv, _ := newTestServer(t)

	submit := fmt.Sprintf(`{"scenarios": %s, "scale": "smoke", "parallelism": 1}`, smokeSpec)
	code, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", submit)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != "job-1" || info.Kind != "scenarios" {
		t.Fatalf("handle %+v", info)
	}

	final := waitState(t, srv.URL, info.ID)
	if final.State != string(adhocga.JobDone) {
		t.Fatalf("terminal state %q (error %q)", final.State, final.Error)
	}
	if len(final.Results) != 1 || final.Results[0].Name != "svc-smoke" {
		t.Fatalf("results %+v", final.Results)
	}
	if final.Results[0].FinalCoopMean <= 0 {
		t.Errorf("final cooperation %v not positive", final.Results[0].FinalCoopMean)
	}

	code, stream := doJSON(t, http.MethodGet, srv.URL+info.EventsURL, "")
	if code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}

	goldenPath := filepath.Join("testdata", "events.ndjson.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, stream, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if string(stream) != string(want) {
		t.Errorf("NDJSON stream deviates from golden:\n--- got\n%s--- want\n%s", stream, want)
	}

	// Sanity on the stream shape: 2 reps × 2 gens + 2 replicate + done.
	lines := strings.Split(strings.TrimSpace(string(stream)), "\n")
	if len(lines) != 7 {
		t.Errorf("stream has %d events, want 7", len(lines))
	}
	var last adhocga.Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Kind != adhocga.KindDone || last.Done.State != adhocga.JobDone {
		t.Errorf("stream not terminated by done event: %+v", last)
	}
}

// TestServiceCancelFreesJobSlot proves over HTTP that a killed job frees
// its session job slot: with a 1-job bound, a queued submission only ever
// runs because DELETE cancelled the hog.
func TestServiceCancelFreesJobSlot(t *testing.T) {
	srv, _ := newTestServer(t, adhocga.WithMaxConcurrentJobs(1), adhocga.WithPoolSize(1))

	code, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs",
		fmt.Sprintf(`{"scenarios": %s, "scale": "smoke", "parallelism": 1}`, longSpec))
	if code != http.StatusAccepted {
		t.Fatalf("submit long: %d %s", code, body)
	}
	var long JobInfo
	if err := json.Unmarshal(body, &long); err != nil {
		t.Fatal(err)
	}

	code, body = doJSON(t, http.MethodPost, srv.URL+"/v1/jobs",
		fmt.Sprintf(`{"scenarios": %s, "scale": "smoke", "parallelism": 1}`, smokeSpec))
	if code != http.StatusAccepted {
		t.Fatalf("submit queued: %d %s", code, body)
	}
	var queued JobInfo
	if err := json.Unmarshal(body, &queued); err != nil {
		t.Fatal(err)
	}
	if queued.State != string(adhocga.JobQueued) {
		t.Fatalf("second job state %q, want queued behind the slot", queued.State)
	}

	code, body = doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/"+long.ID, "")
	if code != http.StatusAccepted {
		t.Fatalf("cancel: %d %s", code, body)
	}
	if final := waitState(t, srv.URL, long.ID); final.State != string(adhocga.JobCancelled) {
		t.Fatalf("long job state %q, want cancelled", final.State)
	}
	if final := waitState(t, srv.URL, queued.ID); final.State != string(adhocga.JobDone) {
		t.Fatalf("queued job state %q — the freed slot never reached it", final.State)
	}
}

// TestSubmitAfterEmbeddedJobs: jobs submitted to the session directly
// hold job-1 and job-2, and the server's next ID skips them instead of
// colliding.
func TestSubmitAfterEmbeddedJobs(t *testing.T) {
	srv, s := newDurableServer(t, jobstore.NewMem(), Options{})
	req, err := parseSubmit([]byte(fmt.Sprintf(`{"scenarios": %s, "scale": "smoke"}`, smokeSpec)))
	if err != nil {
		t.Fatal(err)
	}
	_, spec, err := s.resolveSubmit(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		j, err := s.session.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("job-%d", i); j.ID() != want {
			t.Fatalf("embedded job %s, want %s", j.ID(), want)
		}
	}
	if info := submitSmoke(t, srv.URL, 1); info.ID != "job-3" {
		t.Fatalf("HTTP job %s, want job-3", info.ID)
	}
}

func TestServiceSSEFraming(t *testing.T) {
	srv, _ := newTestServer(t)
	code, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs",
		fmt.Sprintf(`{"scenarios": %s, "parallelism": 1, "scale": "smoke"}`, smokeSpec))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	waitState(t, srv.URL, info.ID)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+info.EventsURL, nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q", ct)
	}
	streamBytes, _ := io.ReadAll(resp.Body)
	stream := string(streamBytes)
	if !strings.HasPrefix(stream, "id: 0\ndata: ") || !strings.Contains(stream, "\n\n") {
		t.Errorf("stream not SSE-framed with event ids:\n%s", stream)
	}
	// Every frame carries its sequence number as the SSE event id, which
	// is what makes Last-Event-ID resumption work.
	for i, frame := range strings.Split(strings.TrimSuffix(stream, "\n\n"), "\n\n") {
		if !strings.HasPrefix(frame, fmt.Sprintf("id: %d\ndata: ", i)) {
			t.Errorf("frame %d misframed:\n%s", i, frame)
		}
	}
}

func TestServiceListAndHealth(t *testing.T) {
	srv, _ := newTestServer(t)
	code, body := doJSON(t, http.MethodGet, srv.URL+"/healthz", "")
	if code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}
	code, body = doJSON(t, http.MethodPost, srv.URL+"/v1/jobs",
		fmt.Sprintf(`{"scenarios": %s, "parallelism": 1, "scale": "smoke"}`, smokeSpec))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	waitState(t, srv.URL, info.ID)
	code, body = doJSON(t, http.MethodGet, srv.URL+"/v1/jobs", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list struct {
		Jobs []JobInfo `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != info.ID {
		t.Errorf("list %+v", list)
	}
}

func TestServiceBadRequests(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		name, body string
		wantCode   int
		wantFrag   string
	}{
		{"empty body", "", http.StatusBadRequest, "empty body"},
		{"invalid JSON", "{", http.StatusBadRequest, "body"},
		{"empty scenarios", `{"scenarios": []}`, http.StatusBadRequest, "scenario"},
		{"nameless spec", `{"environments":[{"csn":0}]}`, http.StatusBadRequest, "no name"},
		{"bad scale", fmt.Sprintf(`{"scenarios": %s, "scale": "galactic"}`, smokeSpec), http.StatusBadRequest, "unknown scale"},
		{"negative csn", `{"name":"x","environments":[{"csn":-2}]}`, http.StatusBadRequest, "negative CSN"},
	}
	for _, tc := range cases {
		code, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", tc.body)
		if code != tc.wantCode {
			t.Errorf("%s: code %d want %d (%s)", tc.name, code, tc.wantCode, body)
			continue
		}
		if !strings.Contains(string(body), tc.wantFrag) {
			t.Errorf("%s: body %s missing %q", tc.name, body, tc.wantFrag)
		}
	}

	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/jobs/job-99", ""); code != http.StatusNotFound {
		t.Errorf("missing job status: %d", code)
	}
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/jobs/job-99/events", ""); code != http.StatusNotFound {
		t.Errorf("missing job events: %d", code)
	}
	if code, _ := doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/job-99", ""); code != http.StatusNotFound {
		t.Errorf("missing job cancel: %d", code)
	}
}

func TestParseSubmitShapes(t *testing.T) {
	// Bare array and bare object both pass through as scenarios.
	for _, body := range []string{`[{"name":"a","environments":[{"csn":0}]}]`, `{"name":"a","environments":[{"csn":0}]}`} {
		req, err := parseSubmit([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if string(req.Scenarios) != body {
			t.Errorf("scenarios %s", req.Scenarios)
		}
	}
	req, err := parseSubmit([]byte(`{"scenarios": [{"name":"a","environments":[]}], "seed": 9}`))
	if err != nil || req.Seed != 9 {
		t.Fatalf("wrapper parse: %+v %v", req, err)
	}
	if _, err := parseSubmit([]byte(`{"scenarios": null}`)); err == nil {
		t.Error("null scenarios accepted")
	}
}
