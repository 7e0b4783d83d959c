package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"adhocga"
	"adhocga/internal/jobstore"
	"adhocga/internal/scenario"
	"adhocga/internal/service"
	"adhocga/internal/ws"
)

// daemon-jobs is an in-process adhocd — the file store, a Session and the
// service on a loopback listener — driven by nproc closed-loop clients
// that each keep one connection open at a time and never reuse one, the
// way the README's curl quickstart talks to the daemon. Jobs are short,
// so the fixed cost of each job dominates: HTTP, the WAL fsyncs at submit
// and finalize, hub and WebSocket framing, and the verify sandbox. A
// service, store or streaming change shows here and not in table4-batch.
// Writes mix with reads: status, a list that scans the growing store, and
// metrics scrapes.
//
// The benchmark must not wrap the service's store or install an fsync hook
// on it: service.New type-asserts *jobstore.File to register the WAL
// metric families and owns the store's single fsync hook, so either would
// change the program being measured. The traced run reads the store's own
// Stats and the daemon's /metrics instead.

// daemon is one running in-process adhocd.
type daemon struct {
	dir    string
	store  *jobstore.File
	sess   *adhocga.Session
	svc    *service.Server
	srv    *http.Server
	served chan struct{}
	base   string // http://127.0.0.1:<port>
}

// startDaemon wires the daemon exactly as cmd/adhocd does with
// -store file -max-jobs 4 -pool <nproc>, and waits until /healthz answers.
func startDaemon(ctx context.Context, workdir string, hc *http.Client) (*daemon, error) {
	dir, err := os.MkdirTemp(workdir, "daemon-*")
	if err != nil {
		return nil, err
	}
	store, err := jobstore.OpenFile(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sess := adhocga.NewSession(adhocga.WithPoolSize(nproc), adhocga.WithMaxConcurrentJobs(4), adhocga.WithJobRetention(256))
	d := &daemon{dir: dir, store: store, sess: sess, served: make(chan struct{})}
	d.svc = service.New(sess, service.Options{Store: store})
	if _, _, err := d.svc.Recover(ctx); err != nil {
		sess.Close()
		store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sess.Close()
		store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: d.svc}
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	if _, err := get(ctx, hc, d.base+"/healthz"); err != nil {
		d.close()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return d, nil
}

// close shuts the daemon down in adhocd's order — streams, listener,
// session, store — and removes its data.
func (d *daemon) close() {
	d.svc.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // a timeout only means a stream outlived the drain
	<-d.served
	d.sess.Close()
	_ = d.store.Close() // the data directory is removed next
	os.RemoveAll(d.dir)
}

// daemonJob is one client request in the seeded job mix.
type daemonJob struct {
	spec        scenario.Spec
	parallelism int
	verify      bool // POST /verify after the job
	survey      bool // GET /v1/jobs?state=running and /metrics after the job
}

// nextJob returns client k-th job. The seed picks each job's CSN count
// and scenario seed; the shape alternates between one replicate at
// parallelism 1 (verified by byte-compare) and two replicates at
// parallelism 2 (verified by digest). Every fourth job is verified,
// alternating between the two shapes, and every 25th surveys the daemon.
func nextJob(rnd *rand.Rand, sz size, client, k int) daemonJob {
	reps, par := 1, 1
	if k%2 == 1 {
		reps, par = 2, 2
	}
	return daemonJob{
		spec: scenario.Spec{
			Name:         fmt.Sprintf("bench c%d j%d", client, k),
			Environments: []scenario.EnvSpec{{CSN: []int{0, 10, 20}[rnd.IntN(3)]}},
			Generations:  sz.daemonGenerations,
			Rounds:       sz.daemonRounds,
			Repetitions:  reps,
			Seed:         rnd.Uint64()>>1 + 1,
		},
		parallelism: par,
		verify:      k%4 == (k/4)%2,
		survey:      k%25 == 0,
	}
}

// jobTimes is what a client measured of one job.
type jobTimes struct {
	start, submitted, connected, first, done, closed time.Time
	statusDone, verifyDone                           time.Time
	verifyStart, surveyStart, surveyDone             time.Time
	scrapeStart                                      time.Time
	verifyMode                                       string
	frames, bytes                                    int
	gaps                                             []time.Duration
}

// daemonClient is one closed-loop client.
type daemonClient struct {
	id   int
	hc   *http.Client
	base string
	rnd  *rand.Rand
	next int // index of the client's next job in the mix
	tally
	jobs []jobTimes
}

func newHTTPClient() *http.Client {
	return &http.Client{Timeout: time.Minute, Transport: &http.Transport{DisableKeepAlives: true}}
}

// minJobsPerClient is how many jobs a client runs whatever the budget:
// enough for every request kind of the mix, both verify modes included.
const minJobsPerClient = 6

// daemonSegments is how many stretches an untraced closed-loop phase is
// cut into. Between two, the clients drain and the machine's speed is
// read, so the readings follow the host's drift through the phase as they
// do between the passes and rounds of the other workloads.
const daemonSegments = 4

// runDaemonPhase runs the closed loop against d until budget has passed
// (or each client ran its fixed job count) and returns the clients and
// the segments with the jobs completed in each.
func runDaemonPhase(ctx context.Context, d *daemon, c runConfig, budget time.Duration, r *report) ([]*daemonClient, []stretch) {
	clients := make([]*daemonClient, nproc)
	for i := range clients {
		clients[i] = &daemonClient{id: i, hc: newHTTPClient(), base: d.base, rnd: rand.New(rand.NewPCG(c.seed, uint64(i)))}
	}
	completed := func() int {
		n := 0
		for _, cl := range clients {
			n += len(cl.jobs)
		}
		return n
	}
	n := daemonSegments
	if c.trace {
		n = 1
	}
	var segments []stretch
	for seg := 0; seg < n; seg++ {
		if seg > 0 {
			r.sampleSpeed()
		}
		start, done := time.Now(), completed()
		deadline := start.Add(budget / time.Duration(n))
		var wg sync.WaitGroup
		for _, cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ; cl.next < c.size.daemonJobsPerClient && (cl.next < minJobsPerClient || time.Now().Before(deadline)) && ctx.Err() == nil; cl.next++ {
					if t, ok := cl.runJob(ctx, nextJob(cl.rnd, c.size, cl.id, cl.next), c.size); ok {
						cl.jobs = append(cl.jobs, t)
					}
				}
			}()
		}
		wg.Wait()
		if n := completed() - done; n > 0 { // none once the clients ran all their jobs
			segments = append(segments, stretch{interval{start, time.Now()}, float64(n)})
		}
	}
	return clients, segments
}

// jobsPerSecond is the phase's throughput over the time its clients ran.
func jobsPerSecond(segments []stretch) float64 {
	var jobs float64
	var running time.Duration
	for _, s := range segments {
		jobs += s.work
		running += s.duration()
	}
	return jobs / running.Seconds()
}

// runJob runs one job's client cycle: submit, stream over WebSocket until
// the terminal event, read the status, and the optional verify and
// survey. It reports false when an operation failed.
func (cl *daemonClient) runJob(ctx context.Context, job daemonJob, sz size) (jobTimes, bool) {
	var t jobTimes
	raw, err := json.Marshal(job.spec)
	if err != nil {
		return t, cl.op("encode job", err)
	}
	body, err := json.Marshal(service.SubmitRequest{Scenarios: raw, Parallelism: job.parallelism})
	if err != nil {
		return t, cl.op("encode job", err)
	}
	t.start = time.Now()
	var info service.JobInfo
	resp, err := post(ctx, cl.hc, cl.base+"/v1/jobs", body)
	if err == nil {
		err = json.Unmarshal(resp, &info)
	}
	t.submitted = time.Now()
	if !cl.op("submit", err) || !cl.check("submit-accepted", info.ID != "", "no job id in %s", resp) {
		return t, false
	}

	if !cl.op("stream "+info.ID, cl.stream(info.ID, job, sz, &t)) {
		return t, false
	}

	var status service.JobInfo
	resp, err = get(ctx, cl.hc, cl.base+"/v1/jobs/"+info.ID)
	if err == nil {
		err = json.Unmarshal(resp, &status)
	}
	t.statusDone = time.Now()
	if !cl.op("status "+info.ID, err) {
		return t, false
	}
	cl.check("status-done", status.State == "done" && len(status.Results) == 1 &&
		status.Results[0].FinalCoopMean >= 0 && status.Results[0].FinalCoopMean <= 1,
		"%s: state %s with %d results", info.ID, status.State, len(status.Results))

	if job.verify {
		t.verifyStart = time.Now()
		var rep service.VerifyReport
		resp, err = post(ctx, cl.hc, cl.base+"/v1/jobs/"+info.ID+"/verify", nil)
		if err == nil {
			err = json.Unmarshal(resp, &rep)
		}
		if err == nil && rep.Verdict != "match" {
			err = fmt.Errorf("verdict %q", rep.Verdict)
		}
		t.verifyDone = time.Now()
		if !cl.op("verify "+info.ID, err) {
			return t, false
		}
		t.verifyMode = rep.Mode
		if job.parallelism == 1 {
			cl.check("verify-byte-compare", rep.Mode == "byte-compare", "%s: parallelism-1 job verified by %q", info.ID, rep.Mode)
		} else {
			cl.check("verify-digest", rep.Mode == "digest", "%s: parallelism-2 job verified by %q", info.ID, rep.Mode)
		}
	}

	if job.survey {
		t.surveyStart = time.Now()
		var list struct {
			Jobs []service.JobInfo `json:"jobs"`
		}
		resp, err = get(ctx, cl.hc, cl.base+"/v1/jobs?state=running")
		if err == nil {
			err = json.Unmarshal(resp, &list)
		}
		t.scrapeStart = time.Now()
		if !cl.op("list", err) {
			return t, false
		}
		running := true
		for _, j := range list.Jobs {
			running = running && j.State == "running"
		}
		cl.check("list-running", running, "the running filter returned other states")
		resp, err = get(ctx, cl.hc, cl.base+"/metrics")
		t.surveyDone = time.Now()
		if !cl.op("metrics", err) {
			return t, false
		}
		cl.check("metrics-scrape", bytes.Contains(resp, []byte("adhocd_jobs_submitted_total")), "exposition lacks adhocd_jobs_submitted_total")
	}
	return t, true
}

// stream follows a job over WebSocket with ?replay=full until the server
// closes the connection after the terminal event.
func (cl *daemonClient) stream(id string, job daemonJob, sz size, t *jobTimes) error {
	u, err := url.Parse(cl.base)
	if err != nil {
		return err
	}
	conn, err := ws.Dial("ws://" + u.Host + "/v1/jobs/" + id + "/ws?replay=full")
	t.connected = time.Now()
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
		return err
	}
	w := jobWatch{contiguous: true}
	for {
		op, msg, err := conn.NextMessage()
		now := time.Now()
		var ce *ws.CloseError
		if errors.As(err, &ce) {
			t.closed = now
			if !cl.check("ws-close-normal", ce.Code == ws.CloseNormal, "%s: close code %d %q", id, ce.Code, ce.Reason) {
				return fmt.Errorf("closed with code %d", ce.Code)
			}
			break
		}
		if err != nil {
			return err
		}
		if op != ws.OpText {
			continue
		}
		var ev adhocga.Event
		if err := json.Unmarshal(msg, &ev); err != nil {
			return fmt.Errorf("frame: %w", err)
		}
		t.frames++
		t.bytes += len(msg)
		w.observe(ev, now)
	}
	t.first, t.done, t.gaps = w.first, w.done, w.gaps.gaps
	gens := sz.daemonGenerations * job.spec.Repetitions
	want := gens + job.spec.Repetitions + 1 // generations, replicates, done
	cl.check("ws-stream-complete", w.contiguous && w.state == adhocga.JobDone && w.generations == gens && w.events == want,
		"%s: %d frames (%d generation), state %q; want %d (%d), done", id, w.events, w.generations, w.state, want, gens)
	if w.state != adhocga.JobDone {
		return fmt.Errorf("job ended %q", w.state)
	}
	return nil
}

func runDaemon(ctx context.Context, c runConfig, r *report) error {
	hc := newHTTPClient()
	// A set-up is the daemon coming up — store open and replay, Session,
	// service, listener, /healthz — plus one warm-up job through the whole
	// client cycle.
	setup := func() (*daemon, error) {
		d, err := startDaemon(ctx, c.workdir, hc)
		if err != nil {
			return nil, err
		}
		warm := daemonClient{hc: hc, base: d.base, rnd: rand.New(rand.NewPCG(warmSeed, 0))}
		job := nextJob(warm.rnd, c.size, -1, 0)
		job.verify = true
		if _, ok := warm.runJob(ctx, job, c.size); !ok {
			d.close()
			return nil, fmt.Errorf("warm-up job: %v", warm.problems)
		}
		return d, nil
	}
	var setups []interval
	var d *daemon
	for i := 0; i < c.size.setups; i++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		var err error
		if d, err = setup(); err != nil {
			return err
		}
		setups = append(setups, interval{start, time.Now()})
	}

	if !c.trace {
		defer d.close()
		clients, segments := runDaemonPhase(ctx, d, c, c.budget, r)
		jobs := collectClients(r, clients)
		r.e2e = endToEnd{setups: setups, stretches: segments}
		for _, t := range jobs {
			r.e2e.ops = append(r.e2e.ops, interval{t.start, t.done})
			r.e2e.firsts = append(r.e2e.firsts, interval{t.start, t.first})
		}
		daemonDiagnostics(r, jobs)
		return nil
	}

	// Traced: the same closed loop runs untraced for a quarter of the
	// budget, traced on a fresh daemon for half of it, and untraced on
	// another fresh daemon for the last quarter, so that the traced half
	// compares with untraced work on either side of it.
	clients, plain := runDaemonPhase(ctx, d, c, c.budget/4, r)
	d.close()
	collectClients(r, clients)
	d, err := setup()
	if err != nil {
		return err
	}
	tr := newTracer()
	sm := startSampler(d.sess)
	traced, segments := runDaemonPhase(ctx, d, c, c.budget/2, r)
	busy := sm.finish()
	jobs := collectClients(r, traced)
	var wall time.Duration
	for _, s := range segments {
		wall += s.duration()
	}
	exposition, scrapeErr := get(ctx, hc, d.base+"/metrics")
	sess, store := d.sess, d.store.Stats()
	d.close()
	if d, err = setup(); err != nil {
		return err
	}
	clients, after := runDaemonPhase(ctx, d, c, c.budget/4, r)
	d.close()
	collectClients(r, clients)
	plain = append(plain, after...)

	if !r.op("final scrape", scrapeErr) {
		return nil
	}
	fam := parseExposition(exposition)
	_, hasFsync := fam["adhocd_wal_fsync_seconds_count"]
	_, hasAppends := fam["adhocd_wal_appends_total"]
	r.check("wal-metrics-exposed", hasFsync && hasAppends, "the daemon's /metrics lacks the WAL families")

	var runs, gaps []time.Duration
	for lane, cl := range traced {
		for _, t := range cl.jobs {
			traceJob(tr, lane, t)
			runs = append(runs, t.done.Sub(t.first))
			gaps = append(gaps, t.gaps...)
		}
	}
	r.addLayers(layerInputs{
		runs: runs, gaps: gaps, load: busy, sess: sess, store: store,
		fsync: time.Duration(fam["adhocd_wal_fsync_seconds_sum"] * float64(time.Second)),
		wall:  wall, tr: tr,
		overhead: jobsPerSecond(plain)/jobsPerSecond(segments) - 1,
	})
	var requests float64
	for name, v := range fam {
		if strings.HasPrefix(name, "adhocd_http_requests_total{") {
			requests += v
		}
	}
	r.diag("service.requests_per_job", requests/float64(max(1, sess.Stats().Submitted)), "count")
	if n := fam["adhocd_wal_fsync_seconds_count"]; n > 0 {
		r.diag("jobstore.fsync.us_mean", fam["adhocd_wal_fsync_seconds_sum"]/n*1e6, "us")
	}
	daemonDiagnostics(r, jobs)
	return nil
}

// collectClients merges the clients' tallies into the report and returns
// every job they completed.
func collectClients(r *report, clients []*daemonClient) []jobTimes {
	var jobs []jobTimes
	for _, cl := range clients {
		r.merge(&cl.tally)
		jobs = append(jobs, cl.jobs...)
	}
	return jobs
}

// traceJob records one job's client phases as spans under a client.job
// root, each named for the layer the phase waits on.
func traceJob(tr *tracer, lane int, t jobTimes) {
	end := t.statusDone
	for _, e := range []time.Time{t.verifyDone, t.surveyDone} {
		if e.After(end) {
			end = e
		}
	}
	root := tr.add("client.job", -1, lane, t.start, end)
	tr.add("service.submit", root, lane, t.start, t.submitted)
	tr.add("ws.handshake", root, lane, t.submitted, t.connected)
	tr.add("session.job", root, lane, t.connected, t.done)
	tr.add("ws.close", root, lane, t.done, t.closed)
	tr.add("service.status", root, lane, t.closed, t.statusDone)
	if !t.verifyStart.IsZero() {
		tr.add("service.verify", root, lane, t.verifyStart, t.verifyDone)
	}
	if !t.surveyStart.IsZero() {
		tr.add("service.list", root, lane, t.surveyStart, t.scrapeStart)
		tr.add("obs.scrape", root, lane, t.scrapeStart, t.surveyDone)
	}
}

// daemonDiagnostics reports each client phase's latency.
func daemonDiagnostics(r *report, jobs []jobTimes) {
	var submit, handshake, closing, status, list, scrape []time.Duration
	verify := map[string][]time.Duration{}
	var frames, size []float64
	for _, t := range jobs {
		submit = append(submit, t.submitted.Sub(t.start))
		handshake = append(handshake, t.connected.Sub(t.submitted))
		closing = append(closing, t.closed.Sub(t.done))
		status = append(status, t.statusDone.Sub(t.closed))
		if !t.verifyStart.IsZero() {
			verify[t.verifyMode] = append(verify[t.verifyMode], t.verifyDone.Sub(t.verifyStart))
		}
		if !t.surveyStart.IsZero() {
			list = append(list, t.scrapeStart.Sub(t.surveyStart))
			scrape = append(scrape, t.surveyDone.Sub(t.scrapeStart))
		}
		frames = append(frames, float64(t.frames))
		size = append(size, float64(t.bytes))
	}
	r.diagLatency("service.submit", submit, "ms")
	r.diagLatency("ws.handshake", handshake, "ms")
	r.diagLatency("ws.close", closing, "ms")
	r.diagLatency("service.status", status, "ms")
	r.diagLatency("service.verify_bytes", verify["byte-compare"], "ms")
	r.diagLatency("service.verify_digest", verify["digest"], "ms")
	r.diagLatency("service.list", list, "ms")
	r.diagLatency("obs.scrape", scrape, "ms")
	r.diag("ws.frames_per_job", median(frames), "count")
	r.diag("ws.bytes_per_job", median(size), "bytes")
	r.diag("jobs", float64(len(jobs)), "count")
}

// parseExposition reads Prometheus text into series → value.
func parseExposition(b []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func get(ctx context.Context, hc *http.Client, u string) ([]byte, error) {
	return do(ctx, hc, http.MethodGet, u, nil)
}

func post(ctx context.Context, hc *http.Client, u string, body []byte) ([]byte, error) {
	return do(ctx, hc, http.MethodPost, u, body)
}

// do sends one request and returns the body of a 2xx response; any other
// status is an error.
func do(ctx context.Context, hc *http.Client, method, u string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, u, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}
