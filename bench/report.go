package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"adhocga"
	"adhocga/internal/jobstore"
)

// value is one measured number with its unit, as the result line carries
// it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metric struct {
	name string
	value
}

// tally counts the operations a goroutine attempted and the checks it ran.
// Workloads with several client goroutines give each its own tally and
// merge them when the clients are done.
type tally struct {
	attempted, failed int
	checks            map[string]int // check name → times it ran
	problems          []string       // the first failures, for the log
}

// maxProblems bounds how many failure messages a run keeps.
const maxProblems = 20

// op counts one attempted operation; a nil err counts it as done, anything
// else as failed.
func (t *tally) op(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		t.problem("%s: %v", what, err)
		return false
	}
	return true
}

// check records that the named correctness check ran, and a problem when
// it failed.
func (t *tally) check(name string, ok bool, format string, args ...any) bool {
	if t.checks == nil {
		t.checks = map[string]int{}
	}
	t.checks[name]++
	if !ok {
		t.problem(name+": "+format, args...)
	}
	return ok
}

func (t *tally) problem(format string, args ...any) {
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for k, v := range o.checks {
		if t.checks == nil {
			t.checks = map[string]int{}
		}
		t.checks[k] += v
	}
	for _, p := range o.problems {
		t.problem("%s", p)
	}
}

// report is what one run of one workload measured.
type report struct {
	tally
	metrics     []metric // the result line's metrics for the run's mode
	diagnostics []metric // printed and written to -json, never gated
	e2e         endToEnd // what an untraced run timed, until finishEndToEnd

	// speedSample is how long one machineSpeed reading takes; zero in a
	// traced run, which reports no end-to-end metrics to rescale.
	speedSample time.Duration
	speeds      []reading // machineSpeed readings taken while the workload was idle
}

// interval is when one timed operation started and ended.
type interval struct{ from, to time.Time }

func (iv interval) duration() time.Duration { return iv.to.Sub(iv.from) }

// stretch is a part of a run and the work finished in it.
type stretch struct {
	interval
	work float64
}

// endToEnd is what an untraced run timed.
type endToEnd struct {
	setups    []interval
	stretches []stretch  // consecutive parts of the measured phase
	ops       []interval // the workload's user-visible operation
	firsts    []interval // submitting an operation → its first generation-level event
}

// reading is one machineSpeed reading and the middle of the time it took.
type reading struct {
	at    time.Time
	speed float64
}

// sampleSpeed reads the machine's speed. Call it only where the workload
// is idle, so that the reading sees the machine and not the program.
func (r *report) sampleSpeed() {
	if r.speedSample <= 0 {
		return
	}
	start := time.Now()
	s := machineSpeed(r.speedSample)
	r.speeds = append(r.speeds, reading{at: start.Add(time.Since(start) / 2), speed: s})
}

// machineSpeed times a fixed task that uses none of the repository's
// code for d and returns sorts per second: in lockstep rounds, each of
// nproc goroutines sorts its own copy of a 256 KiB slice of pseudo-random
// words, and a round ends when the slowest has finished. Like the
// workloads, which keep every processor busy and wait for the slowest
// part, it slows down when the host takes either processor away.
func machineSpeed(d time.Duration) float64 {
	src := make([]uint32, 1<<16)
	x := uint32(2463534242)
	for i := range src {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		src[i] = x
	}
	bufs := make([][]uint32, nproc)
	for i := range bufs {
		bufs[i] = make([]uint32, len(src))
	}
	start := time.Now()
	rounds := 0
	for time.Since(start) < d {
		var wg sync.WaitGroup
		for _, buf := range bufs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				copy(buf, src)
				slices.Sort(buf)
			}()
		}
		wg.Wait()
		rounds++
	}
	return float64(rounds*nproc) / time.Since(start).Seconds()
}

// nominalSpeed is machineSpeed on the reference machine (2 vCPUs) when its
// host is quiet.
const nominalSpeed = 330.0

// speedAround returns the machine's speed around iv: the mean of the last
// reading before it and the first after it, or the one of them there is.
// It returns 0 when there are none.
func (r *report) speedAround(iv interval) float64 {
	var before, after float64
	for _, rd := range r.speeds {
		if !rd.at.After(iv.from) {
			before = rd.speed
		}
		if !rd.at.Before(iv.to) && after == 0 {
			after = rd.speed
		}
	}
	switch {
	case before > 0 && after > 0:
		return (before + after) / 2
	case before > 0:
		return before
	}
	return after
}

// atNominal returns how long iv would have taken at nominalSpeed.
func (r *report) atNominal(iv interval) time.Duration {
	s := r.speedAround(iv)
	if s <= 0 {
		return iv.duration()
	}
	return time.Duration(float64(iv.duration()) * s / nominalSpeed)
}

// finishEndToEnd adds the end-to-end metrics of an untraced run from
// r.e2e. The reference machine's host is shared, and its speed drifts by
// ±10% and more over seconds to minutes, which would swamp the
// differences the benchmark exists to detect. So every timing is first
// rescaled to what it would read at nominalSpeed, by the machine's speed
// read just before and just after it (atNominal). The measured values
// are reported as raw.* diagnostics. Call it after the run's last
// sampleSpeed.
func (r *report) finishEndToEnd() {
	e := r.e2e
	medianOf := func(ivs []interval, scaled bool) float64 {
		ds := make([]time.Duration, len(ivs))
		for i, iv := range ivs {
			ds[i] = iv.duration()
			if scaled {
				ds[i] = r.atNominal(iv)
			}
		}
		return median(seconds(ds))
	}
	workPerS := func(scaled bool) float64 {
		rates := make([]float64, len(e.stretches))
		for i, s := range e.stretches {
			d := s.duration()
			if scaled {
				d = r.atNominal(s.interval)
			}
			rates[i] = s.work / d.Seconds()
		}
		return median(rates)
	}
	r.add("setup_s", medianOf(e.setups, true), "s")
	r.add("peak_rss_mb", peakRSSMB(), "MB")
	r.add("work_per_s", workPerS(true), "1/s")
	r.add("op_p50_ms", medianOf(e.ops, true)*1e3, "ms")
	r.add("first_event_p50_ms", medianOf(e.firsts, true)*1e3, "ms")
	r.diag("raw.setup_s", medianOf(e.setups, false), "s")
	r.diag("raw.work_per_s", workPerS(false), "1/s")
	r.diag("raw.op_p50_ms", medianOf(e.ops, false)*1e3, "ms")
	r.diag("raw.first_event_p50_ms", medianOf(e.firsts, false)*1e3, "ms")
	var ops []time.Duration
	for _, iv := range e.ops {
		ops = append(ops, iv.duration())
	}
	r.diagTail("raw.op", ops, "ms")
	speed := 0.0
	for _, rd := range r.speeds {
		speed += rd.speed / float64(len(r.speeds))
	}
	r.diag("machine.sorts_per_s", speed, "1/s")
	r.diag("setups", float64(len(e.setups)), "count")
	r.diag("stretches", float64(len(e.stretches)), "count")
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value{v, unit}})
}

func (r *report) diag(name string, v float64, unit string) {
	r.diagnostics = append(r.diagnostics, metric{name, value{v, unit}})
}

// perSecond converts seconds to the latency units the benchmark reports.
var perSecond = map[string]float64{"ms": 1e3, "us": 1e6}

// diagLatency reports a latency sample's median as <name>.<unit>_p50 and
// its tail and count as diagTail does.
func (r *report) diagLatency(name string, ds []time.Duration, unit string) {
	if len(ds) > 0 {
		r.diag(name+"."+unit+"_p50", median(seconds(ds))*perSecond[unit], unit)
	}
	r.diagTail(name, ds, unit)
}

// diagTail reports a latency sample's highest well-sampled percentile as
// <name>.<unit>_p<N>, if it has one, and the sample count as <name>.n.
func (r *report) diagTail(name string, ds []time.Duration, unit string) {
	if len(ds) == 0 {
		return
	}
	s := sortedCopy(seconds(ds))
	if p, ok := tailPercentile(len(s)); ok {
		r.diag(fmt.Sprintf("%s.%s_p%s", name, unit, strconv.FormatFloat(p, 'f', -1, 64)), percentile(s, p)*perSecond[unit], unit)
	}
	r.diag(name+".n", float64(len(s)), "count")
}

// layerInputs are the measurements every traced run reports per layer.
type layerInputs struct {
	runs  []time.Duration // per job: first generation-level event → terminal event
	gaps  []time.Duration // between consecutive generation-level events of one replicate
	load  load
	sess  *adhocga.Session
	store jobstore.FileStats // zero when the workload has no store
	fsync time.Duration      // total time the store spent in fsync
	wall  time.Duration      // the traced phase's wall time
	tr    *tracer
	// overhead is the traced phase's cost over the same work untraced, as
	// a ratio minus one.
	overhead float64
}

// addLayers adds the per-layer metrics of a traced run.
func (r *report) addLayers(in layerInputs) {
	gaps := sortedCopy(seconds(in.gaps))
	jobs := float64(max(1, in.sess.Stats().Submitted))
	st := in.sess.StreamTotals()
	r.add("session.run.ms_p50", median(seconds(in.runs))*1e3, "ms")
	r.add("stream.gap.us_p50", percentile(gaps, 50)*1e6, "us")
	r.add("stream.gap.us_p90", percentile(gaps, 90)*1e6, "us")
	r.add("runner.pool_busy_frac", in.load.busy, "ratio")
	r.add("session.queued_mean", in.load.queued, "jobs")
	r.add("hub.events_per_job", float64(st.Emitted)/jobs, "count")
	r.add("hub.resyncs", float64(st.Resyncs), "count")
	r.add("hub.evictions", float64(st.Evictions), "count")
	r.add("jobstore.fsyncs_per_job", float64(in.store.Fsyncs)/jobs, "count")
	r.add("jobstore.appends_per_job", float64(in.store.Appends)/jobs, "count")
	r.add("jobstore.wal_bytes_per_job", float64(in.store.TotalBytes)/jobs, "bytes")
	r.add("jobstore.compactions", float64(in.store.Compactions), "count")
	r.add("jobstore.fsync_frac", in.fsync.Seconds()/in.wall.Seconds(), "ratio")
	r.add("trace.coverage", in.tr.coverage(), "ratio")
	r.add("trace.overhead", in.overhead, "ratio")
	shares := in.tr.layerShares()
	for _, l := range layers {
		r.add(l+".self_frac", shares[l], "ratio")
	}
	r.diag("hub.max_stall_us", float64(st.MaxStall.Microseconds()), "us")
	r.diag("session.run.n", float64(len(in.runs)), "count")
	r.diag("stream.gap.n", float64(len(gaps)), "count")
}

// load is what the sampler saw of a session's execution pool.
type load struct{ busy, queued float64 }

// sampler polls a session's census every 50 ms while a traced phase runs:
// the share of pool slots held and the number of queued jobs. Only its
// goroutine touches n and sum until finish has waited for it.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	n    int
	sum  load
}

func startSampler(s *adhocga.Session) *sampler {
	sm := &sampler{stop: make(chan struct{})}
	sm.wg.Add(1)
	go func() {
		defer sm.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sm.stop:
				return
			case <-tick.C:
				st := s.Stats()
				sm.n++
				sm.sum.busy += float64(st.PoolBusy) / float64(st.PoolSize)
				sm.sum.queued += float64(st.Queued)
			}
		}
	}()
	return sm
}

// finish stops the sampler, waits for it and returns the means.
func (sm *sampler) finish() load {
	close(sm.stop)
	sm.wg.Wait()
	if sm.n == 0 {
		return load{}
	}
	return load{busy: sm.sum.busy / float64(sm.n), queued: sm.sum.queued / float64(sm.n)}
}

// meanLoad averages the loads of several sampled stretches.
func meanLoad(ls []load) load {
	var m load
	for _, l := range ls {
		m.busy += l.busy / float64(len(ls))
		m.queued += l.queued / float64(len(ls))
	}
	return m
}

// jobWatch is what the benchmark's subscriber saw of one job.
type jobWatch struct {
	submitted, first, done time.Time
	state                  adhocga.JobState
	events, generations    int
	checkpoints            int
	contiguous             bool // sequence numbers ran 0, 1, 2, … with no gap
	gaps                   gapClock
}

// run is the job's first generation-level event → terminal event.
func (w *jobWatch) run() time.Duration { return w.done.Sub(w.first) }

// observe folds one event received at t into the watch.
func (w *jobWatch) observe(ev adhocga.Event, t time.Time) {
	if ev.Seq != w.events {
		w.contiguous = false
	}
	w.events++
	var scen, rep int
	switch ev.Kind {
	case adhocga.KindGeneration:
		scen, rep = ev.Generation.Scenario, ev.Generation.Rep
	case adhocga.KindIslands:
		scen, rep = ev.Islands.Scenario, ev.Islands.Rep
	case adhocga.KindCheckpoint:
		w.checkpoints++
		return
	case adhocga.KindDone:
		w.done, w.state = t, ev.Done.State
		return
	default:
		return
	}
	w.generations++
	if w.first.IsZero() {
		w.first = t
	}
	w.gaps.tick([2]int{scen, rep}, t)
}

// watchJob drains j's archival event stream on the calling goroutine. It
// returns once the terminal event arrived or ctx was cancelled.
func watchJob(ctx context.Context, j *adhocga.Job, submitted time.Time) jobWatch {
	w := jobWatch{submitted: submitted, contiguous: true}
	for ev := range j.EventsContext(ctx) {
		w.observe(ev, time.Now())
	}
	return w
}

// gapClock records the time between consecutive ticks of each stream.
type gapClock struct {
	last map[[2]int]time.Time
	gaps []time.Duration
}

func (g *gapClock) tick(stream [2]int, t time.Time) {
	if g.last == nil {
		g.last = map[[2]int]time.Time{}
	}
	if prev, ok := g.last[stream]; ok {
		g.gaps = append(g.gaps, t.Sub(prev))
	}
	g.last[stream] = t
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// VmHWM:     14084 kB
		if fields := strings.Fields(sc.Text()); len(fields) == 3 && fields[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
