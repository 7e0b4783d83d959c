package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The crash/restart harness re-execs this test binary as a real adhocd
// process (TestMain flips into daemon mode when the env var is set), so the
// kill below is a true SIGKILL of a separate process mid-write — not a
// polite in-process cancellation.

const daemonEnv = "ADHOCD_E2E_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// daemon is one spawned adhocd process under test control.
type daemon struct {
	t       *testing.T
	cmd     *exec.Cmd
	stdout  *syncBuffer
	stderr  *syncBuffer
	base    string        // http://host:port
	exited  chan struct{} // closed once the process is reaped
	exitErr error         // cmd.Wait result; read only after exited closes
}

// startDaemon spawns adhocd with a file store over dir and waits for it to
// announce its address.
func startDaemon(t *testing.T, dir string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{
		t:      t,
		stdout: &syncBuffer{},
		stderr: &syncBuffer{},
		exited: make(chan struct{}),
	}
	d.cmd = exec.Command(exe,
		"-addr", "127.0.0.1:0", "-store", "file", "-data-dir", dir,
		"-scale", "smoke", "-ring", "16384", "-max-jobs", "2")
	d.cmd.Env = append(os.Environ(), daemonEnv+"=1")
	d.cmd.Stdout = d.stdout
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.exitErr = d.cmd.Wait(); close(d.exited) }()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.exited
	})

	deadline := time.Now().Add(30 * time.Second)
	for {
		if out := d.stdout.String(); strings.Contains(out, "listening on ") {
			rest := out[strings.Index(out, "listening on ")+len("listening on "):]
			d.base = "http://" + strings.Fields(rest)[0]
			return d
		}
		select {
		case <-d.exited:
			t.Fatalf("daemon exited before listening (%v); stderr %q", d.exitErr, d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stdout %q stderr %q", d.stdout.String(), d.stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sigkill hard-kills the daemon — the crash under test — and waits for the
// process to be gone.
func (d *daemon) sigkill() {
	d.t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		d.t.Fatal(err)
	}
	<-d.exited
}

// sigterm asks for the graceful shutdown path and waits it out.
func (d *daemon) sigterm() {
	d.t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.t.Fatal(err)
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.t.Fatalf("daemon ignored SIGTERM; stdout %q", d.stdout.String())
	}
}

func (d *daemon) get(path string) (int, []byte) {
	d.t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		d.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatal(err)
	}
	return resp.StatusCode, body
}

func (d *daemon) post(path, body string) (int, []byte) {
	d.t.Helper()
	resp, err := http.Post(d.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		d.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatal(err)
	}
	return resp.StatusCode, out
}

// crashSpec is sized so the SIGKILL reliably lands mid-run: thousands of
// generations (a few seconds of work, one event each) at a pinned seed and
// parallelism 1, so the full event stream is a deterministic artifact.
const crashSpec = `{"scenarios": {"name": "crash-e2e", "environments": [{"csn": 0}],
  "population": 20, "tournament_size": 10, "generations": 6000, "rounds": 10,
  "repetitions": 1, "seed": 11}, "parallelism": 1}`

type daemonJobInfo struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Events    int    `json:"events"`
	EventsURL string `json:"events_url"`
	VerifyURL string `json:"verify_url"`
}

// waitDaemonJob polls the job until cond is satisfied.
func waitDaemonJob(t *testing.T, d *daemon, id string, cond func(daemonJobInfo) bool) daemonJobInfo {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		code, body := d.get("/v1/jobs/" + id)
		if code != http.StatusOK {
			t.Fatalf("status %s: %d %s", id, code, body)
		}
		var info daemonJobInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if cond(info) {
			return info
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the awaited condition", id)
	return daemonJobInfo{}
}

// TestCrashRestartByteIdentical is the durability tentpole's proof: SIGKILL
// adhocd in the middle of an Evolve job, restart it against the same data
// directory, and demand the resumed job's full NDJSON replay be
// byte-identical to an uninterrupted golden run of the same submission —
// and that the daemon's own verify endpoint agrees.
func TestCrashRestartByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("crash/restart e2e spawns real daemons; skipped in -short")
	}

	// Golden run: the same submission on a daemon nobody kills.
	golden := startDaemon(t, filepath.Join(t.TempDir(), "golden"))
	code, body := golden.post("/v1/jobs", crashSpec)
	if code != http.StatusAccepted {
		t.Fatalf("golden submit: %d %s", code, body)
	}
	var goldenJob daemonJobInfo
	if err := json.Unmarshal(body, &goldenJob); err != nil {
		t.Fatal(err)
	}
	waitDaemonJob(t, golden, goldenJob.ID, func(i daemonJobInfo) bool { return i.State == "done" })
	code, goldenLog := golden.get(goldenJob.EventsURL)
	if code != http.StatusOK || len(goldenLog) == 0 {
		t.Fatalf("golden events: %d (%d bytes)", code, len(goldenLog))
	}
	golden.sigterm()

	// Crash run: same submission, killed mid-flight.
	crashDir := filepath.Join(t.TempDir(), "crash")
	victim := startDaemon(t, crashDir)
	code, body = victim.post("/v1/jobs", crashSpec)
	if code != http.StatusAccepted {
		t.Fatalf("crash submit: %d %s", code, body)
	}
	var crashJob daemonJobInfo
	if err := json.Unmarshal(body, &crashJob); err != nil {
		t.Fatal(err)
	}
	if crashJob.ID != goldenJob.ID {
		t.Fatalf("crash job id %q, golden %q — ids must line up for the byte comparison", crashJob.ID, goldenJob.ID)
	}
	// Let the job get well into its run (hundreds of generation events,
	// while its record is still the queued one) before pulling the plug.
	mid := waitDaemonJob(t, victim, crashJob.ID, func(i daemonJobInfo) bool {
		return i.State == "running" && i.Events >= 300
	})
	if mid.State != "running" {
		t.Fatalf("job state %q before kill", mid.State)
	}
	victim.sigkill()

	// Restart over the same directory: the job must come back and re-run.
	revived := startDaemon(t, crashDir)
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(revived.stdout.String(), "resumed 1 unfinished") {
		if time.Now().After(deadline) {
			t.Fatalf("restart did not report the resumed job; stdout %q stderr %q",
				revived.stdout.String(), revived.stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitDaemonJob(t, revived, crashJob.ID, func(i daemonJobInfo) bool { return i.State == "done" })

	// The headline assertion: the replay after the crash is the golden run,
	// byte for byte.
	code, revivedLog := revived.get(crashJob.EventsURL)
	if code != http.StatusOK {
		t.Fatalf("revived events: %d", code)
	}
	if string(revivedLog) != string(goldenLog) {
		t.Fatalf("resumed replay deviates from the uninterrupted golden run at byte %d (golden %d bytes, resumed %d bytes)",
			firstByteDiff(goldenLog, revivedLog), len(goldenLog), len(revivedLog))
	}

	// And the daemon's own verdict concurs: replaying from the persisted
	// (seed, spec) matches the persisted artifacts exactly.
	code, body = verifyWithRetry(t, revived, crashJob.VerifyURL)
	if code != http.StatusOK {
		t.Fatalf("verify: %d %s", code, body)
	}
	var report struct {
		Verdict  string `json:"verdict"`
		Mode     string `json:"mode"`
		EventLog *struct {
			Match            bool `json:"match"`
			DivergenceOffset int  `json:"divergence_offset"`
		} `json:"event_log"`
	}
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatal(err)
	}
	if report.Verdict != "match" || report.Mode != "byte-compare" ||
		report.EventLog == nil || !report.EventLog.Match || report.EventLog.DivergenceOffset != -1 {
		t.Fatalf("verify report %s", body)
	}
	revived.sigterm()
}

// verifyWithRetry POSTs the verify endpoint, allowing the watcher a moment
// to persist the just-finished job's terminal record (409 while pending).
func verifyWithRetry(t *testing.T, d *daemon, url string) (int, []byte) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body := d.post(url, "")
		if code != http.StatusConflict || time.Now().After(deadline) {
			return code, body
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func firstByteDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestDaemonStoreFlagValidation pins the new flags' failure modes.
func TestDaemonStoreFlagValidation(t *testing.T) {
	var stdout, stderr syncBuffer
	if code := run(context.Background(), []string{"-store", "redis"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad store backend: exit %d", code)
	}
	if !strings.Contains(stderr.String(), "mem or file") {
		t.Errorf("stderr %q", stderr.String())
	}
	// A data dir that cannot be created is a startup error, not a panic.
	stderr = syncBuffer{}
	dir := filepath.Join(t.TempDir(), "blocked")
	if err := os.WriteFile(dir, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run(context.Background(), []string{"-store", "file", "-data-dir", filepath.Join(dir, "sub")}, &stdout, &stderr); code != 1 {
		t.Errorf("unusable data dir: exit %d (stderr %q)", code, stderr.String())
	}
}
