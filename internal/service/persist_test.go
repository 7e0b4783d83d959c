package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adhocga"
	"adhocga/internal/jobstore"
	"adhocga/internal/league"
)

// newDurableServer builds a server over an explicit store so tests can
// inspect — and tamper with — the records behind the API.
func newDurableServer(t *testing.T, store jobstore.Store, opts Options, sessOpts ...adhocga.SessionOption) (*httptest.Server, *Server) {
	t.Helper()
	session := adhocga.NewSession(sessOpts...)
	opts.Store = store
	s := New(session, opts)
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		session.Close()
	})
	return srv, s
}

// waitRecord polls the store until the record reaches a terminal state —
// i.e. until the persistence watcher has caught up with the finished job.
func waitRecord(t *testing.T, store jobstore.Store, id string) jobstore.Record {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		rec, ok, err := store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if ok && jobstore.TerminalState(rec.State) {
			return rec
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("record %s never reached a terminal state", id)
	return jobstore.Record{}
}

func submitSmoke(t *testing.T, base string, parallelism int) JobInfo {
	t.Helper()
	body := fmt.Sprintf(`{"scenarios": %s, "scale": "smoke", "parallelism": %d}`, smokeSpec, parallelism)
	code, resp := doJSON(t, http.MethodPost, base+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, resp)
	}
	var info JobInfo
	if err := json.Unmarshal(resp, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func verifyJob(t *testing.T, base, id string) (int, VerifyReport) {
	t.Helper()
	code, body := doJSON(t, http.MethodPost, base+"/v1/jobs/"+id+"/verify", "")
	var rep VerifyReport
	if code == http.StatusOK {
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatalf("verify response: %v\n%s", err, body)
		}
	}
	return code, rep
}

// firstDiff is the test's own divergence finder, independent of the
// implementation's compareLogs.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// TestVerifyMatchByteCompare closes the durability loop on the happy path:
// a finished deterministic job's record carries the full NDJSON event log
// (byte-identical to what the streaming endpoint served), and verify
// replays the job and confirms both the result digest and every byte of
// the log.
func TestVerifyMatchByteCompare(t *testing.T) {
	store := jobstore.NewMem()
	srv, _ := newDurableServer(t, store, Options{})
	info := submitSmoke(t, srv.URL, 1)
	waitState(t, srv.URL, info.ID)
	rec := waitRecord(t, store, info.ID)
	if rec.State != jobstore.StateDone || !rec.Deterministic {
		t.Fatalf("record %+v", rec)
	}
	if len(rec.EventLog) == 0 || rec.ResultDigest == "" || rec.LogDigest == "" || rec.Events == 0 {
		t.Fatalf("finished record missing artifacts: log=%dB events=%d resultDigest=%q logDigest=%q",
			len(rec.EventLog), rec.Events, rec.ResultDigest, rec.LogDigest)
	}

	code, stream := doJSON(t, http.MethodGet, srv.URL+info.EventsURL, "")
	if code != http.StatusOK || !bytes.Equal(stream, rec.EventLog) {
		t.Fatalf("stored log deviates from the streamed one (%d; %d vs %d bytes)", code, len(stream), len(rec.EventLog))
	}

	code, rep := verifyJob(t, srv.URL, info.ID)
	if code != http.StatusOK {
		t.Fatalf("verify: %d", code)
	}
	if rep.Verdict != "match" || rep.Mode != "byte-compare" || !rep.ResultMatch {
		t.Fatalf("report %+v", rep)
	}
	if rep.EventLog == nil || !rep.EventLog.Match || rep.EventLog.DivergenceOffset != -1 ||
		rep.EventLog.StoredBytes != len(rec.EventLog) || rep.EventLog.ReplayedBytes != len(rec.EventLog) {
		t.Fatalf("log report %+v", rep.EventLog)
	}
}

// TestVerifyDetectsTampering flips single bytes in the stored artifacts —
// the result digest, the event log, the spec itself — and demands verify
// call each one out, with the divergence offset pointing at the right
// byte.
func TestVerifyDetectsTampering(t *testing.T) {
	store := jobstore.NewMem()
	srv, _ := newDurableServer(t, store, Options{})
	info := submitSmoke(t, srv.URL, 1)
	waitState(t, srv.URL, info.ID)
	pristine := waitRecord(t, store, info.ID)
	restore := func() {
		if err := store.Put(pristine); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("result digest", func(t *testing.T) {
		defer restore()
		rec := pristine
		flipped := []byte(rec.ResultDigest)
		if flipped[0] == 'a' {
			flipped[0] = 'b'
		} else {
			flipped[0] = 'a'
		}
		rec.ResultDigest = string(flipped)
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
		code, rep := verifyJob(t, srv.URL, info.ID)
		if code != http.StatusOK {
			t.Fatalf("verify: %d", code)
		}
		if rep.Verdict != "mismatch" || rep.ResultMatch {
			t.Fatalf("tampered result digest not caught: %+v", rep)
		}
		// The log itself was untouched, so the log comparison still holds —
		// the verdict isolates what was tampered.
		if rep.EventLog == nil || !rep.EventLog.Match {
			t.Fatalf("log report %+v", rep.EventLog)
		}
	})

	t.Run("event log byte", func(t *testing.T) {
		defer restore()
		rec := pristine
		rec.EventLog = append([]byte(nil), pristine.EventLog...)
		const off = 17
		rec.EventLog[off] ^= 0x01
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
		code, rep := verifyJob(t, srv.URL, info.ID)
		if code != http.StatusOK {
			t.Fatalf("verify: %d", code)
		}
		if rep.Verdict != "mismatch" || !rep.ResultMatch {
			t.Fatalf("report %+v", rep)
		}
		if rep.EventLog == nil || rep.EventLog.Match || rep.EventLog.DivergenceOffset != off {
			t.Fatalf("divergence offset: %+v, want %d", rep.EventLog, off)
		}
		if rep.EventLog.StoredAt == "" || rep.EventLog.ReplayedAt == "" || rep.EventLog.StoredAt == rep.EventLog.ReplayedAt {
			t.Fatalf("divergence snippets %q / %q", rep.EventLog.StoredAt, rep.EventLog.ReplayedAt)
		}
	})

	t.Run("spec byte", func(t *testing.T) {
		defer restore()
		rec := pristine
		// Change the scenario seed inside the stored spec document: the
		// replay now runs a genuinely different experiment against the
		// original job's log.
		tampered := strings.Replace(string(pristine.Spec), `"seed":42`, `"seed":43`, 1)
		if tampered == string(pristine.Spec) {
			t.Fatalf("seed not found in stored spec: %s", pristine.Spec)
		}
		rec.Spec = json.RawMessage(tampered)
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}

		// Compute the expected divergence point independently: replay the
		// tampered spec in our own session and diff against the pristine log.
		spec, err := specFromRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		sess := adhocga.NewSession()
		defer sess.Close()
		j, err := sess.SubmitNamed(context.Background(), rec.ID, spec)
		if err != nil {
			t.Fatal(err)
		}
		var events []adhocga.Event
		for e := range j.Events() {
			events = append(events, e)
		}
		want := firstDiff(pristine.EventLog, eventLogNDJSON(events))
		if want < 0 {
			t.Fatal("seed change did not alter the event log — tamper test is vacuous")
		}

		code, rep := verifyJob(t, srv.URL, info.ID)
		if code != http.StatusOK {
			t.Fatalf("verify: %d", code)
		}
		if rep.Verdict != "mismatch" || rep.EventLog == nil || rep.EventLog.Match {
			t.Fatalf("tampered spec not caught: %+v", rep)
		}
		if rep.EventLog.DivergenceOffset != want {
			t.Fatalf("divergence offset %d, want %d", rep.EventLog.DivergenceOffset, want)
		}
	})
}

// TestVerifyDigestModes covers the jobs that can't byte-compare: parallel
// submissions (event order is not reproducible, only results are) and jobs
// whose event log outgrew the store cap (digest kept, bytes dropped). Both
// still get a real verify verdict.
func TestVerifyDigestModes(t *testing.T) {
	t.Run("parallel job verifies by result digest", func(t *testing.T) {
		store := jobstore.NewMem()
		srv, _ := newDurableServer(t, store, Options{})
		info := submitSmoke(t, srv.URL, 2)
		waitState(t, srv.URL, info.ID)
		rec := waitRecord(t, store, info.ID)
		if rec.Deterministic || len(rec.EventLog) != 0 || rec.LogDigest != "" {
			t.Fatalf("parallel record should carry no event log: %+v", rec)
		}
		code, rep := verifyJob(t, srv.URL, info.ID)
		if code != http.StatusOK {
			t.Fatalf("verify: %d", code)
		}
		if rep.Verdict != "match" || rep.Mode != "digest" || !rep.ResultMatch || rep.EventLog != nil {
			t.Fatalf("report %+v", rep)
		}
	})

	t.Run("oversized log verifies by log digest", func(t *testing.T) {
		store := jobstore.NewMem()
		srv, _ := newDurableServer(t, store, Options{})
		info := submitSmoke(t, srv.URL, 1)
		waitState(t, srv.URL, info.ID)
		// A log over the embedding cap keeps only its digest: store the
		// record that such a job gets.
		rec := waitRecord(t, store, info.ID)
		if len(rec.EventLog) == 0 || rec.LogDigest == "" {
			t.Fatalf("smoke record should embed its log: log=%dB digest=%q", len(rec.EventLog), rec.LogDigest)
		}
		rec.EventLog = nil
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
		// In a later process the job is store-only and its archived replay
		// was never kept: the events endpoint says so and points at verify.
		srv2, _ := newDurableServer(t, store, Options{})
		code, body := doJSON(t, http.MethodGet, srv2.URL+info.EventsURL, "")
		if code != http.StatusGone || !strings.Contains(string(body), "verify") {
			t.Fatalf("events for dropped log: %d %s", code, body)
		}
		code, rep := verifyJob(t, srv2.URL, info.ID)
		if code != http.StatusOK {
			t.Fatalf("verify: %d", code)
		}
		if rep.Verdict != "match" || rep.Mode != "byte-compare" {
			t.Fatalf("report %+v", rep)
		}
		if rep.EventLog == nil || !rep.EventLog.Match || rep.EventLog.StoredBytes != -1 || rep.EventLog.ReplayedBytes == 0 {
			t.Fatalf("log report %+v", rep.EventLog)
		}
	})
}

// TestEmbedLogCap pins the stored-log cap at 4 MiB: a log of exactly the
// cap is embedded in the record, one byte more keeps only its digest.
func TestEmbedLogCap(t *testing.T) {
	log := make([]byte, 4<<20+1)
	if !embedLog(log[:4<<20]) {
		t.Error("a 4 MiB log is not embedded")
	}
	if embedLog(log) {
		t.Error("a log of 4 MiB + 1 byte is embedded")
	}
}

// TestVerifyRequiresDoneJob pins the endpoint's refusals: unknown jobs are
// 404, jobs that did not finish successfully are 409.
func TestVerifyRequiresDoneJob(t *testing.T) {
	store := jobstore.NewMem()
	srv, _ := newDurableServer(t, store, Options{}, adhocga.WithPoolSize(1))

	if code, _ := verifyJob(t, srv.URL, "job-99"); code != http.StatusNotFound {
		t.Fatalf("missing job verify: %d", code)
	}

	code, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs",
		fmt.Sprintf(`{"scenarios": %s, "scale": "smoke", "parallelism": 1}`, longSpec))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if code, _ := verifyJob(t, srv.URL, info.ID); code != http.StatusConflict {
		t.Fatalf("running job verify: %d", code)
	}
	if code, _ := doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/"+info.ID, ""); code != http.StatusAccepted {
		t.Fatalf("cancel: %d", code)
	}
	waitState(t, srv.URL, info.ID)
	waitRecord(t, store, info.ID)
	if code, _ := verifyJob(t, srv.URL, info.ID); code != http.StatusConflict {
		t.Fatalf("cancelled job verify: %d", code)
	}
}

// TestRecoverAcrossRestart is the in-process restart drill (the SIGKILL
// version lives in cmd/adhocd): a file-backed service finishes one job and
// leaves one unfinished, the process "dies", and a second service over the
// same directory must (a) serve the finished job's status, results, and
// archived byte-exact replay without recompute, (b) re-run the unfinished
// job to the same result digest, (c) keep allocating IDs after the
// persisted ones, and (d) report all of it on /healthz.
func TestRecoverAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	// First life: run one job to completion.
	store1, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess1 := adhocga.NewSession()
	srv1 := httptest.NewServer(New(sess1, Options{Store: store1}))
	info := submitSmoke(t, srv1.URL, 1)
	waitState(t, srv1.URL, info.ID)
	done := waitRecord(t, store1, info.ID)
	srv1.Close()
	sess1.Close()
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// Plant an unfinished record, as a crash mid-job would leave behind:
	// same spec, caught at state running with some progress reported.
	store2, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	unfinished := done
	unfinished.ID = "job-2"
	unfinished.State = jobstore.StateRunning
	unfinished.Watermark = 3
	unfinished.Events = 0
	unfinished.Result = nil
	unfinished.ResultDigest = ""
	unfinished.EventLog = nil
	unfinished.LogDigest = ""
	if err := store2.Put(unfinished); err != nil {
		t.Fatal(err)
	}

	// Second life: recover, then serve.
	sess2 := adhocga.NewSession()
	s2 := New(sess2, Options{Store: store2, Version: "test-build"})
	recovered, resumed, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 2 || resumed != 1 {
		t.Fatalf("recovered %d resumed %d, want 2/1", recovered, resumed)
	}
	srv2 := httptest.NewServer(s2)
	t.Cleanup(func() {
		srv2.Close()
		sess2.Close()
		store2.Close()
	})

	code, body := doJSON(t, http.MethodGet, srv2.URL+"/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var health map[string]any
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["version"] != "test-build" || health["store"] != "file" ||
		health["recovered_jobs"] != float64(2) || health["resumed_jobs"] != float64(1) {
		t.Fatalf("healthz %s", body)
	}

	// (a) The finished job is served from its record — state, results, and
	// the byte-exact archived replay — with no live session handle behind it.
	statusInfo := waitState(t, srv2.URL, done.ID)
	if statusInfo.State != jobstore.StateDone || len(statusInfo.Results) != 1 {
		t.Fatalf("recovered status %+v", statusInfo)
	}
	code, stream := doJSON(t, http.MethodGet, srv2.URL+"/v1/jobs/"+done.ID+"/events", "")
	if code != http.StatusOK || !bytes.Equal(stream, done.EventLog) {
		t.Fatalf("archived replay: %d, %d vs %d bytes", code, len(stream), len(done.EventLog))
	}
	if _, live := sess2.Job(done.ID); live {
		t.Fatal("finished job was re-submitted instead of served from the store")
	}

	// (b) The resumed job re-runs to completion; determinism makes its
	// result digest identical to the first life's run of the same spec.
	waitState(t, srv2.URL, unfinished.ID)
	rec2 := waitRecord(t, store2, unfinished.ID)
	if rec2.State != jobstore.StateDone {
		t.Fatalf("resumed job ended %q (%s)", rec2.State, rec2.Error)
	}
	if rec2.ResultDigest != done.ResultDigest {
		t.Fatalf("resumed result digest %s deviates from the original %s", rec2.ResultDigest, done.ResultDigest)
	}

	// Both generations of job verify clean in the second process.
	for _, id := range []string{done.ID, unfinished.ID} {
		code, rep := verifyJob(t, srv2.URL, id)
		if code != http.StatusOK || rep.Verdict != "match" {
			t.Fatalf("verify %s after restart: %d %+v", id, code, rep)
		}
	}

	// (c) Fresh submissions continue the persisted ID sequence.
	if next := submitSmoke(t, srv2.URL, 1); next.ID != "job-3" {
		t.Fatalf("post-restart id %q, want job-3", next.ID)
	}

	// (d) The list is the store's full history, in submission order.
	code, body = doJSON(t, http.MethodGet, srv2.URL+"/v1/jobs", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list struct {
		Jobs []JobInfo `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 3 || list.Jobs[0].ID != "job-1" || list.Jobs[1].ID != "job-2" || list.Jobs[2].ID != "job-3" {
		t.Fatalf("list %+v", list.Jobs)
	}
}

// failingStore errors on writes — the backend going bad under the service.
type failingStore struct{ jobstore.Store }

func (f failingStore) Put(jobstore.Record) error {
	return fmt.Errorf("disk on fire")
}

// TestSubmitStoreFailures pins the durability-before-acceptance contract:
// a submission the store cannot persist is refused (no unrecoverable job
// ever runs), and one the session refuses leaves a failed record behind.
func TestSubmitStoreFailures(t *testing.T) {
	t.Run("store write failure refuses the job", func(t *testing.T) {
		srv, _ := newDurableServer(t, failingStore{jobstore.NewMem()}, Options{})
		code, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs",
			fmt.Sprintf(`{"scenarios": %s, "scale": "smoke"}`, smokeSpec))
		if code != http.StatusInternalServerError || !strings.Contains(string(body), "persist") {
			t.Fatalf("submit with broken store: %d %s", code, body)
		}
	})

	t.Run("session refusal marks the record failed", func(t *testing.T) {
		store := jobstore.NewMem()
		session := adhocga.NewSession()
		srv := httptest.NewServer(New(session, Options{Store: store}))
		t.Cleanup(srv.Close)
		session.Close() // submissions now fail at the session
		code, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs",
			fmt.Sprintf(`{"scenarios": %s, "scale": "smoke"}`, smokeSpec))
		if code != http.StatusServiceUnavailable {
			t.Fatalf("submit on closed session: %d", code)
		}
		rec, ok, err := store.Get("job-1")
		if err != nil || !ok || rec.State != jobstore.StateFailed || rec.Error == "" {
			t.Fatalf("refused submission record: %+v (%v %v)", rec, ok, err)
		}
	})

	t.Run("oversized body", func(t *testing.T) {
		srv, _ := newDurableServer(t, jobstore.NewMem(), Options{})
		body := strings.Repeat(" ", 1<<20+1)
		code, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", body)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("submit of 1 MiB + 1 byte: %d", code)
		}
	})
}

// terminalFailStore keeps queued records and fails every terminal write:
// a disk that fills up while the job runs.
type terminalFailStore struct{ jobstore.Store }

func (f terminalFailStore) Put(rec jobstore.Record) error {
	if jobstore.TerminalState(rec.State) {
		return fmt.Errorf("disk full")
	}
	return f.Store.Put(rec)
}

// TestVerifyAfterFailedTerminalPut: a done job whose terminal record never
// reached the store still verifies, against the record its failed write
// carried.
func TestVerifyAfterFailedTerminalPut(t *testing.T) {
	srv, s := newDurableServer(t, terminalFailStore{jobstore.NewMem()}, Options{})
	info := submitSmoke(t, srv.URL, 1)
	if st := waitState(t, srv.URL, info.ID); st.State != jobstore.StateDone {
		t.Fatalf("job ended %s", st.State)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.pendingWatches.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("terminal write never attempted")
		}
		time.Sleep(time.Millisecond)
	}
	if rec, _, _ := s.store.Get(info.ID); rec.State != jobstore.StateQueued {
		t.Fatalf("stored record is %s, want the queued one", rec.State)
	}
	code, rep := verifyJob(t, srv.URL, info.ID)
	if code != http.StatusOK {
		t.Fatalf("verify: %d", code)
	}
	if rep.Verdict != "match" || rep.Mode != "byte-compare" || rep.EventLog == nil || !rep.EventLog.Match {
		t.Fatalf("report %+v", rep)
	}
}

// TestVerifyEdgeCases walks the endpoint's remaining branches: a stale
// record of a finished job, a truncated stored log, and a record whose
// spec no longer parses.
func TestVerifyEdgeCases(t *testing.T) {
	store := jobstore.NewMem()
	srv, s := newDurableServer(t, store, Options{})
	info := submitSmoke(t, srv.URL, 1)
	waitState(t, srv.URL, info.ID)
	pristine := waitRecord(t, store, info.ID)
	restore := func() {
		if err := store.Put(pristine); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("watcher retires once the terminal record persists", func(t *testing.T) {
		// The terminal record is already in the store (waitRecord above),
		// so the job's watch goroutine has written and must stop counting
		// as pending promptly.
		deadline := time.Now().Add(10 * time.Second)
		for s.pendingWatches.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatal("watcher still pending after the record went terminal")
			}
			time.Sleep(time.Millisecond)
		}
	})

	t.Run("stale running record waits then refuses", func(t *testing.T) {
		defer restore()
		// Regress the record to running, a state only an older build's
		// record can hold, while the live job is long done: verify judges
		// the stored record, not the live job, and refuses it instead of
		// replaying garbage. Only a queued record defers to the live job.
		rec := pristine
		rec.State = jobstore.StateRunning
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
		if code, _ := verifyJob(t, srv.URL, info.ID); code != http.StatusConflict {
			t.Fatalf("stale running record verify: %d", code)
		}
	})

	t.Run("truncated stored log diverges at its end", func(t *testing.T) {
		defer restore()
		rec := pristine
		cut := len(pristine.EventLog) / 2
		rec.EventLog = append([]byte(nil), pristine.EventLog[:cut]...)
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
		code, rep := verifyJob(t, srv.URL, info.ID)
		if code != http.StatusOK {
			t.Fatalf("verify: %d", code)
		}
		if rep.Verdict != "mismatch" || rep.EventLog == nil || rep.EventLog.DivergenceOffset != cut {
			t.Fatalf("truncated log report %+v", rep.EventLog)
		}
		if rep.EventLog.StoredAt != "" || rep.EventLog.ReplayedAt == "" {
			t.Fatalf("snippets %q / %q — stored side ends at the divergence", rep.EventLog.StoredAt, rep.EventLog.ReplayedAt)
		}
	})

	t.Run("unparseable spec is a server error", func(t *testing.T) {
		defer restore()
		rec := pristine
		rec.Spec = json.RawMessage(`{"scenarios": 7}`)
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
		if code, _ := verifyJob(t, srv.URL, info.ID); code != http.StatusInternalServerError {
			t.Fatalf("corrupt spec verify: %d", code)
		}
	})
}

// TestRecoverMarksUnrunnableRecordsFailed: an unfinished record whose spec
// cannot be parsed anymore is marked failed (and stays visible) instead of
// crash-looping the recovery pass.
func TestRecoverMarksUnrunnableRecordsFailed(t *testing.T) {
	store := jobstore.NewMem()
	if err := store.Put(jobstore.Record{ID: "job-1", Kind: "scenarios", State: jobstore.StateRunning}); err != nil {
		t.Fatal(err)
	}
	session := adhocga.NewSession()
	t.Cleanup(session.Close)
	s := New(session, Options{Store: store})
	recovered, resumed, err := s.Recover(context.Background())
	if err != nil || recovered != 1 || resumed != 0 {
		t.Fatalf("recover: %d/%d %v", recovered, resumed, err)
	}
	rec, _, _ := store.Get("job-1")
	if rec.State != jobstore.StateFailed || !strings.Contains(rec.Error, "recovery") {
		t.Fatalf("unrunnable record %+v", rec)
	}
}

// TestHealthzDefaults pins the health document for an out-of-the-box
// server: dev build, memory store, nothing recovered.
func TestHealthzDefaults(t *testing.T) {
	srv, _ := newTestServer(t)
	code, body := doJSON(t, http.MethodGet, srv.URL+"/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var health map[string]any
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["version"] != "dev" || health["store"] != "mem" ||
		health["recovered_jobs"] != float64(0) || health["resumed_jobs"] != float64(0) {
		t.Fatalf("healthz %s", body)
	}
}

// TestListServesStoredRecords pins GET /v1/jobs, unfiltered and per
// state, when most jobs live only in the store: the session retains one
// finished job, and the store also holds three evicted done jobs and the
// running and failed records an earlier process left behind. Listing
// reads stored results back only for the records it returns; the golden
// pins that the response bytes are those of the whole records.
func TestListServesStoredRecords(t *testing.T) {
	store, err := jobstore.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	for _, rec := range []jobstore.Record{
		{ID: "job-1", Kind: "scenarios", Spec: json.RawMessage(`{"seed":9}`), Seed: 9, State: jobstore.StateRunning, Watermark: 5},
		{ID: "job-2", Kind: "scenarios", Spec: json.RawMessage(`{"seed":9}`), Seed: 9, State: jobstore.StateFailed, Events: 3, Error: "boom"},
	} {
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	srv, _ := newDurableServer(t, store, Options{}, adhocga.WithJobRetention(1))
	for i := 0; i < 4; i++ {
		waitRecord(t, store, submitSmoke(t, srv.URL, 1).ID)
	}

	var got bytes.Buffer
	for _, query := range []string{"", "?state=done", "?state=running", "?state=failed", "?state=queued"} {
		code, body := doJSON(t, http.MethodGet, srv.URL+"/v1/jobs"+query, "")
		if code != http.StatusOK {
			t.Fatalf("list %q: %d %s", query, code, body)
		}
		fmt.Fprintf(&got, "GET /v1/jobs%s\n%s", query, body)
	}
	goldenPath := filepath.Join("testdata", "list.golden")
	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("list responses deviate from golden:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}

// TestRecordWrittenTwice pins the record lifecycle on the WAL store: a
// job's record is written exactly twice, queued before the 202 and
// terminal once the job ends, each write one fsynced append. Nothing is
// written while the job runs.
func TestRecordWrittenTwice(t *testing.T) {
	store, err := jobstore.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	base, _ := newLeagueServer(t, store, league.NewMemArchive())
	for _, tc := range []struct {
		kind   string
		submit func() string
	}{
		{"scenarios", func() string { return submitSmoke(t, base, 1).ID }},
		{"league", func() string {
			code, body := doJSON(t, http.MethodPost, base+"/v1/league",
				`{"baselines": true, "per_side": 2, "matches_per_pair": 1, "rounds": 10, "seed": 7}`)
			if code != http.StatusAccepted {
				t.Fatalf("league submit: %d %s", code, body)
			}
			return jobIDOf(t, body)
		}},
	} {
		before := store.Stats()
		rec := waitRecord(t, store, tc.submit())
		after := store.Stats()
		if rec.Kind != tc.kind || rec.State != jobstore.StateDone {
			t.Fatalf("%s: record %s ended %s %q", tc.kind, rec.ID, rec.State, rec.Error)
		}
		if appends, fsyncs := after.Appends-before.Appends, after.Fsyncs-before.Fsyncs; appends != 2 || fsyncs != 2 {
			t.Errorf("%s job: %d appends, %d fsyncs, want 2 and 2", tc.kind, appends, fsyncs)
		}
	}
}

// TestResumedJobWrittenOnce: a job Recover re-submits already has its
// queued record, so the only write it adds is the terminal one.
func TestResumedJobWrittenOnce(t *testing.T) {
	store, err := jobstore.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	session := adhocga.NewSession()
	t.Cleanup(session.Close)
	s := New(session, Options{Store: store})
	req, err := parseSubmit([]byte(fmt.Sprintf(`{"scenarios": %s, "scale": "smoke", "parallelism": 1}`, smokeSpec)))
	if err != nil {
		t.Fatal(err)
	}
	sp, _, err := s.resolveSubmit(req)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := newRecord("job-1", sp)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(queued); err != nil {
		t.Fatal(err)
	}

	before := store.Stats()
	if _, resumed, err := s.Recover(context.Background()); err != nil || resumed != 1 {
		t.Fatalf("recover: resumed %d, %v", resumed, err)
	}
	if rec := waitRecord(t, store, queued.ID); rec.State != jobstore.StateDone {
		t.Fatalf("resumed job ended %s %q", rec.State, rec.Error)
	}
	after := store.Stats()
	if appends, fsyncs := after.Appends-before.Appends, after.Fsyncs-before.Fsyncs; appends != 1 || fsyncs != 1 {
		t.Errorf("resumed job: %d appends, %d fsyncs, want 1 and 1", appends, fsyncs)
	}
}

// TestUnstreamedJobHasNoSubscribers: persistence does not follow a job's
// event stream, so a running job nobody streams has no subscriber on its
// hub — and no consumer its producer could ever wait on.
func TestUnstreamedJobHasNoSubscribers(t *testing.T) {
	srv, session := newTestServer(t)
	code, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs",
		fmt.Sprintf(`{"scenarios": %s, "parallelism": 1, "scale": "smoke"}`, longSpec))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	j, ok := session.Job(jobIDOf(t, body))
	if !ok {
		t.Fatal("accepted job is not in the session")
	}
	t.Cleanup(j.Cancel)
	deadline := time.Now().Add(30 * time.Second)
	for j.EventCount() < 20 {
		if time.Now().After(deadline) {
			t.Fatal("job never got going")
		}
		time.Sleep(time.Millisecond)
	}
	if st := j.StreamStats(); j.State() != adhocga.JobRunning || st.Subscribers != 0 {
		t.Fatalf("running job (state %s) has %d subscribers, want 0", j.State(), st.Subscribers)
	}
}
