// Command adhocga runs the paper's experiments from the command line. It
// has four subcommands:
//
//	adhocga evolve       one Table 4 case or a scenario batch: cooperation chart, census, statistics
//	adhocga experiments  every table and figure of the paper's evaluation at a chosen scale
//	adhocga league       harvest champions into a hall-of-fame archive and play a round-robin league
//	adhocga sim          one tournament with a fixed, non-evolved population mix
//
// Run "adhocga <subcommand> -h" for its flags. Flags that mean the same
// thing in several subcommands (-generations, -rounds, -reps, -seed,
// -par, -q, -csn, -mode) share one definition and one validation table;
// each subcommand keeps its own defaults.
//
// Every evolutionary batch runs as one job on a Session (package
// adhocga), so SIGINT/SIGTERM interrupt gracefully: replicates stop at
// their next generation barrier and the partial cooperation series
// collected so far is printed with an "interrupted at generation N"
// marker (exit 130) instead of dying mid-write. Usage errors exit 2
// before any work starts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"adhocga"
	"adhocga/internal/experiment"
	"adhocga/internal/network"
	"adhocga/internal/runner"
)

func main() {
	// All work happens in run so that deferred cleanup (stopping a CPU
	// profile, writing a heap profile) executes before the process exits;
	// os.Exit here would skip defers and truncate profiles.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// interruptedExit is the exit code of a SIGINT-cancelled run (128+SIGINT,
// the shell convention), after the partial series has been emitted.
const interruptedExit = 130

// subcommands is the dispatch table, in the order usage lists them.
var subcommands = []struct {
	name, summary string
	run           func(ctx context.Context, args []string, stdout, stderr io.Writer) int
}{
	{"evolve", "evolve one Table 4 case or a scenario batch; print the cooperation chart and census", runEvolve},
	{"experiments", "regenerate the paper's Fig 4 and Tables 5-9 (and the dynamics tables)", runExperiments},
	{"league", "harvest champions into a hall-of-fame archive and play a round-robin league", runLeague},
	{"sim", "play one tournament with a fixed, non-evolved population mix", runSim},
}

// run is the whole CLI behind a testable seam: the first argument picks
// the subcommand, which parses the rest into its own FlagSet and writes
// every byte of output to the given writers. Cancelling ctx (SIGINT or
// SIGTERM in main) stops a running job at its next generation barrier.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return 0
	}
	for _, sub := range subcommands {
		if sub.name == args[0] {
			return sub.run(ctx, args[1:], stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "adhocga: unknown subcommand %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: adhocga <subcommand> [flags]\n\nsubcommands:")
	for _, sub := range subcommands {
		fmt.Fprintf(w, "  %-12s %s\n", sub.name, sub.summary)
	}
	fmt.Fprintln(w, "\nRun 'adhocga <subcommand> -h' for the subcommand's flags.")
}

// command is one subcommand's FlagSet plus the values of the flags
// several subcommands share. Set the fields to the subcommand's defaults,
// then register the shared flags it takes with shared.
type command struct {
	fs  *flag.FlagSet
	set map[string]bool // flags given explicitly, filled by parse

	generations, rounds, reps int
	seed                      uint64
	par                       int
	quiet                     bool
	csn                       int
	mode                      string
}

func newCommand(name string, stderr io.Writer) *command {
	fs := flag.NewFlagSet("adhocga "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &command{fs: fs}
}

// shared registers the named shared flags, each defaulting to the value
// its field holds now.
func (c *command) shared(names ...string) {
	for _, name := range names {
		switch name {
		case "generations":
			c.fs.IntVar(&c.generations, name, c.generations, "generations per replication")
		case "rounds":
			c.fs.IntVar(&c.rounds, name, c.rounds, "rounds per tournament")
		case "reps":
			c.fs.IntVar(&c.reps, name, c.reps, "independent replications")
		case "seed":
			c.fs.Uint64Var(&c.seed, name, c.seed, "master seed")
		case "par":
			c.fs.IntVar(&c.par, name, c.par, "worker pool size (0 = all cores)")
		case "q":
			c.fs.BoolVar(&c.quiet, name, c.quiet, "suppress progress output")
		case "csn":
			c.fs.IntVar(&c.csn, name, c.csn, "constantly selfish nodes seated in every tournament")
		case "mode":
			c.fs.StringVar(&c.mode, name, c.mode, "path selection mode: SP (shorter) or LP (longer)")
		default:
			panic("adhocga: no shared flag -" + name)
		}
	}
}

// parse parses args and records which flags were set explicitly. It
// returns an exit code when the run should stop there (0 after -h, 2 on
// a parse error), or -1 to continue.
func (c *command) parse(args []string) int {
	if err := c.fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	c.set = map[string]bool{}
	c.fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	return -1
}

// override copies v into *dst when flag name was set explicitly, so
// unset flags leave a preset's or a scenario spec's value alone.
func override[T any](c *command, name string, dst *T, v T) {
	if c.set[name] {
		*dst = v
	}
}

// check is one row of the fail-fast flag table. It applies only when
// flag name was set explicitly; bad rejects the flag's value.
type check struct {
	name string
	bad  bool
	msg  string
}

// valid fails fast on nonsense values the downstream layers would
// otherwise silently ignore (an explicit -islands 0 used to fall back to
// a serial run that looked like the island experiment the user asked
// for) or turn into a confusing late error. It checks the shared flags'
// rows and then the subcommand's own, reports the first explicitly-set
// flag that fails, and returns false if there is one.
func (c *command) valid(rows ...check) bool {
	_, modeErr := network.ModeByName(c.mode)
	parErr := runner.Options{Parallelism: c.par}.Validate()
	rows = append([]check{
		{"generations", c.generations < 1, "must be >= 1"},
		{"rounds", c.rounds < 1, "must be >= 1"},
		{"reps", c.reps < 1, "must be >= 1"},
		{"csn", c.csn < 0, "must be >= 0"},
		{"mode", modeErr != nil, fmt.Sprintf("must be SP or LP, got %q", c.mode)},
		{"par", parErr != nil, "must be >= 0"},
	}, rows...)
	for _, r := range rows {
		if c.set[r.name] && r.bad {
			fmt.Fprintf(c.fs.Output(), "%s: -%s %s\n", c.fs.Name(), r.name, r.msg)
			return false
		}
	}
	return true
}

// runBatch submits one scenario batch as a job on the session and
// consumes its event stream: replicate completions drive the progress
// line on stderr, generation events fold into a partial series. It
// returns the results and -1 on success; otherwise an exit code:
// interruptedExit after a cooperative cancellation (the partial
// cooperation series has been printed with its interruption marker), or
// 1 on failure.
func runBatch(ctx context.Context, session *adhocga.Session, spec adhocga.ScenariosSpec, quiet bool, stdout, stderr io.Writer) ([]*experiment.CaseResult, int) {
	job, err := session.Submit(ctx, spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return nil, 1
	}
	var partial adhocga.PartialSeries
	for e := range job.Events() {
		switch e.Kind {
		case adhocga.KindReplicate:
			if !quiet {
				fmt.Fprintf(stderr, "\rreplication %d/%d done", e.Replicate.Done, e.Replicate.Total)
				if e.Replicate.Done == e.Replicate.Total {
					fmt.Fprintln(stderr)
				}
			}
		default:
			partial.Add(e)
		}
	}
	// The event stream is closed, so the job is terminal: Wait only
	// collects its error.
	if err := job.Wait(context.Background()); err != nil {
		if job.State() == adhocga.JobCancelled {
			if !quiet {
				fmt.Fprintln(stderr)
			}
			names := make([]string, len(spec.Runs))
			for i, r := range spec.Runs {
				names[i] = r.Spec.Name
			}
			adhocga.RenderInterrupted(stdout, &partial, names)
			return nil, interruptedExit
		}
		fmt.Fprintln(stderr, err)
		return nil, 1
	}
	return job.Result().([]*experiment.CaseResult), -1
}
