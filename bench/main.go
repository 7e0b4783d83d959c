// Command bench is the repository benchmark: it measures what a user of
// adhocga waits for on three workloads, checks that every output it
// measured is correct, and in a separate traced run breaks the time down
// by layer. See README.md for the workloads, the metrics and the rules
// for using the numbers.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -seed 1                       # every workload, untraced then traced
//	bash bench/run.sh --workload daemon-jobs --seed 3 --seconds 30 --trace 0
//	bash bench/run.sh compare -parent 'p/*.json' -change 'c/*.json'
//
// With --workload, one workload runs in this process and the last line of
// standard output is the result: {"correct", "attempted", "failed",
// "metrics"}. Without it, every workload runs in its own child process,
// untraced and then traced, and every metric is printed as
// "<workload> <metric> <value> <unit>". The exit code is non-zero when a
// correctness check fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(ctx context.Context, c runConfig, r *report) error
	// checks lists the correctness checks every untraced run must execute;
	// tracedChecks those of a traced run.
	checks, tracedChecks []string
}

var workloads = []workload{
	{
		name:         "table4-batch",
		run:          runTable4,
		checks:       []string{"pass-complete", "passes-identical", "coop-in-range"},
		tracedChecks: []string{"pass-complete", "replay-matches-session"},
	},
	{
		name:         "daemon-jobs",
		run:          runDaemon,
		checks:       []string{"submit-accepted", "ws-close-normal", "ws-stream-complete", "status-done", "verify-byte-compare", "verify-digest", "list-running", "metrics-scrape"},
		tracedChecks: []string{"submit-accepted", "ws-stream-complete", "status-done", "wal-metrics-exposed"},
	},
	{
		name:         "island-hof",
		run:          runIslandHOF,
		checks:       []string{"job-done", "checkpoints-archived", "final-champion-archived", "league-complete", "league-deterministic"},
		tracedChecks: []string{"job-done", "checkpoints-archived", "league-complete", "league-deterministic"},
	},
}

func workloadByName(name string) (workload, bool) {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		return workload{}, false
	}
	return workloads[i], true
}

// size holds every workload's fixed input sizes. full is what the
// benchmark measures; the tests run a reduced copy so they stay fast.
type size struct {
	setups      int           // set-ups per run; setup_s is their median
	speedSample time.Duration // how long one machine-speed reading takes

	t4Generations, t4Rounds, t4Reps int

	daemonGenerations, daemonRounds, daemonJobsPerClient int

	hofJobsPerSubmitter, hofGenerations int
}

var full = size{
	setups: 9, speedSample: 250 * time.Millisecond,
	t4Generations: 20, t4Rounds: 300, t4Reps: 2,
	daemonGenerations: 8, daemonRounds: 40, daemonJobsPerClient: 500,
	hofJobsPerSubmitter: 8, hofGenerations: 500,
}

// runConfig is one run's settings.
type runConfig struct {
	seed    uint64
	budget  time.Duration // how long the run measures
	trace   bool
	workdir string // scratch space inside the checkout, removed afterwards
	size    size
}

// nproc is the machine's processor count: the pool size of every session
// and the number of client goroutines the load comes from.
var nproc = runtime.NumCPU()

// warmSeed seeds every set-up's warm-up work. It is fixed rather than
// taken from -seed so that set-up does the same work in every run.
const warmSeed = 1

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runRecord is one run in a -json document.
type runRecord struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	result
	Diagnostics map[string]value `json:"diagnostics,omitempty"`
	Checks      map[string]int   `json:"checks"` // correctness check → times it ran
	Problems    []string         `json:"problems,omitempty"`
}

// document is what -json writes: the machine and every run made.
type document struct {
	Machine machine     `json:"machine"`
	Seed    uint64      `json:"seed"`
	Seconds int         `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process, untraced then traced)")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := fs.Int("seconds", 30, "how long each run measures")
	trace := fs.Int("trace", 0, "1 runs the traced variant, which reports the per-layer metrics instead of the end-to-end ones")
	jsonOut := fs.String("json", "", "also write every run's metrics, diagnostics and machine to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want -seconds ≥ 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	m := identify()
	fmt.Fprintf(stdout, "# machine %s\n", m)
	doc := document{Machine: m, Seed: *seed, Seconds: *secs}
	var ok bool
	if *name == "" {
		ok = runAll(ctx, &doc, stdout, stderr)
	} else {
		w, found := workloadByName(*name)
		if !found {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		c := runConfig{seed: *seed, budget: time.Duration(*secs) * time.Second, trace: *trace == 1, size: full}
		rec, err := runOne(ctx, w, c, filepath.Join(".bench_build", "run"))
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printRecord(stdout, rec)
		for _, p := range rec.Problems {
			fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, p)
		}
		line, err := json.Marshal(rec.result)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		doc.Runs = append(doc.Runs, rec)
		ok = rec.Correct
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, doc); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne runs workload w in this process under a fresh scratch directory.
func runOne(ctx context.Context, w workload, c runConfig, root string) (runRecord, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return runRecord{}, err
	}
	dir, err := os.MkdirTemp(root, w.name+"-*")
	if err != nil {
		return runRecord{}, err
	}
	defer os.RemoveAll(dir)
	c.workdir = dir
	var r report
	if !c.trace {
		r.speedSample = c.size.speedSample
	}
	r.sampleSpeed()
	if err := w.run(ctx, c, &r); err != nil {
		return runRecord{}, err
	}
	r.sampleSpeed()
	if !c.trace {
		r.finishEndToEnd()
	}
	expected := w.checks
	if c.trace {
		expected = w.tracedChecks
	}
	for _, name := range expected {
		if r.checks[name] == 0 {
			r.problem("check %s never ran", name)
		}
	}
	rec := runRecord{Workload: w.name, Checks: r.checks, Problems: r.problems, result: result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]value{},
	}}
	if c.trace {
		rec.Trace = 1
	}
	for _, m := range r.metrics {
		rec.Metrics[m.name] = m.value
	}
	if len(r.diagnostics) > 0 {
		rec.Diagnostics = map[string]value{}
		for _, m := range r.diagnostics {
			rec.Diagnostics[m.name] = m.value
		}
	}
	return rec, nil
}

// printRecord prints every metric of a run as "<workload> <metric> <value>
// <unit>", the gated ones first.
func printRecord(w io.Writer, rec runRecord) {
	for _, set := range []map[string]value{rec.Metrics, rec.Diagnostics} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			fmt.Fprintf(w, "%s %s %s %s\n", rec.Workload, n, formatValue(set[n].Value), set[n].Unit)
		}
	}
	fmt.Fprintf(w, "%s correct=%t attempted=%d failed=%d trace=%d\n", rec.Workload, rec.Correct, rec.Attempted, rec.Failed, rec.Trace)
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// runAll runs every workload untraced and then traced, each in its own
// child process so that peak memory and set-up are measured per workload.
func runAll(ctx context.Context, doc *document, stdout, stderr io.Writer) bool {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return false
	}
	root := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return false
	}
	ok := true
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			rec, err := runChild(ctx, self, root, w.name, doc.Seed, doc.Seconds, trace, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s trace=%d: %v\n", w.name, trace, err)
				ok = false
				continue
			}
			printRecord(stdout, rec)
			doc.Runs = append(doc.Runs, rec)
			ok = ok && rec.Correct
		}
	}
	return ok
}

// runChild runs one workload in a child process and reads back its run.
func runChild(ctx context.Context, self, root, name string, seed uint64, secs, trace int, stderr io.Writer) (runRecord, error) {
	out, err := os.CreateTemp(root, "child-*.json")
	if err != nil {
		return runRecord{}, err
	}
	out.Close()
	defer os.Remove(out.Name())
	cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(secs), "-trace", fmt.Sprint(trace), "-json", out.Name())
	cmd.Stdout = io.Discard
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var doc document
	b, err := os.ReadFile(out.Name())
	if err == nil {
		err = json.Unmarshal(b, &doc)
	}
	if err != nil || len(doc.Runs) != 1 {
		return runRecord{}, errors.Join(runErr, fmt.Errorf("no result from child: %v", err))
	}
	return doc.Runs[0], nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// machine identifies where a run happened; every number the benchmark
// prints belongs to one.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
}

func identify() machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Go:         runtime.Version(),
		Revision:   "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					m.Revision += "+modified"
				}
			}
		}
	}
	return m
}

func (m machine) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s revision=%s", m.NumCPU, m.GOMAXPROCS, m.CPU, m.Go, m.Revision)
}
