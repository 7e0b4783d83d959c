package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"adhocga"
	"adhocga/internal/experiment"
	"adhocga/internal/report"
	"adhocga/internal/scenario"
	"adhocga/internal/strategy"
	"adhocga/internal/textplot"
)

// runEvolve is the evolve subcommand: it runs a single Table 4 evaluation
// case, or any batch of declarative scenarios, and prints the cooperation
// trajectory, final strategy census, and summary statistics.
//
//	adhocga evolve -case 1 -generations 100 -rounds 300 -reps 4 -seed 1
//	adhocga evolve -scenario spec.json            # user-authored scenario file
//	adhocga evolve -scenario csn-grid             # a registered scenario family
//	adhocga evolve -scenario "mixed TE1+TE4 (SP)" # one registered scenario
//	adhocga evolve -case 1 -population 200 -islands 4 -topology ring \
//	       -migration-interval 10 -migrants 2
//	adhocga evolve -case 1 -churn 0.1 -churn-interval 5 -rewire 0.5
//	adhocga evolve -case 1 -free-riders 5 -liars 5 -onoff 5 -gossip 10
//	adhocga evolve -list-scenarios
//
// The -islands flags shard the population over an island-model engine
// (internal/island): subpopulations evolve concurrently and exchange elite
// genomes over the chosen topology. The dynamics flags (-churn, -rewire,
// -free-riders, -liars, -onoff) enable the environment-perturbation layer
// (internal/dynamics): population churn with naive immigrants, mobility-
// driven route-length drift, and Byzantine adversaries in every
// tournament. Results stay deterministic for a fixed seed at any
// parallelism level; -islands 1 and all-zero dynamics are bit-identical to
// the static serial engine.
//
// -case N is shorthand for the table4 registry scenario with ID N, so
// every invocation is a scenario batch, run as one job whose (scenario ×
// replicate) pairs share the session's pool. At paper scale use
// -generations 500 -rounds 300 -reps 60 (slow).
func runEvolve(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := newCommand("evolve", stderr)
	c.generations, c.rounds, c.reps, c.seed = 80, 150, 4, 1
	c.shared("generations", "rounds", "reps", "seed", "par", "q")
	fs := c.fs
	var (
		caseID      = fs.Int("case", 1, "evaluation case 1-4 (Table 4), run with -seed as its own master seed (0 derives one, like every -scenario batch); ignored with -scenario")
		scenarioArg = fs.String("scenario", "", "scenario JSON file, registered family, or registered scenario name")
		population  = fs.Int("population", 0, "total evolving population (unset = scenario/paper default; must divide by -islands)")
		islands     = fs.Int("islands", 0, "shard the population over this many islands (unset = scenario default; 1 = serial)")
		topology    = fs.String("topology", "", "island migration topology: ring, full, or random-pairs")
		interval    = fs.Int("migration-interval", 0, "generations between island migrations (unset = default 10)")
		migrants    = fs.Int("migrants", 0, "elite genomes sent per topology edge each migration (unset = default 1)")
		churn       = fs.Float64("churn", 0, "fraction of the population replaced by naive immigrants at each dynamics barrier [0,1]")
		churnIntv   = fs.Int("churn-interval", 0, "generations between dynamics barriers (unset = default 1)")
		rewire      = fs.Float64("rewire", 0, "per-barrier probability of mobility rewiring the route-length landscape [0,1]")
		freeRiders  = fs.Int("free-riders", 0, "Byzantine free-riders seated in every tournament")
		liars       = fs.Int("liars", 0, "Byzantine gossip liars seated in every tournament (enable -gossip)")
		onoff       = fs.Int("onoff", 0, "Byzantine on-off attackers seated in every tournament")
		gossip      = fs.Int("gossip", 0, "rounds between reputation gossip exchanges (unset = off)")
		csvPath     = fs.String("csv", "", "write the cooperation series as CSV to this file (single scenario only)")
		savePath    = fs.String("save", "", "write the final strategy census to this file (ungrouped strategy + share per line; strings are accepted by adhocga sim -mix); single scenario only")
		list        = fs.Bool("list-scenarios", false, "list registered scenario families and exit")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile  = fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	if code := c.parse(args); code >= 0 {
		return code
	}
	if !c.valid(
		check{"population", *population < 1, "must be >= 1"},
		check{"islands", *islands < 1, "must be >= 1"},
		check{"migration-interval", *interval < 1, "must be >= 1"},
		check{"migrants", *migrants < 1, "must be >= 1"},
		check{"churn", *churn < 0 || *churn > 1, "must be in [0,1]"},
		check{"churn-interval", *churnIntv < 1, "must be >= 1"},
		check{"rewire", *rewire < 0 || *rewire > 1, "must be in [0,1]"},
		check{"free-riders", *freeRiders < 0, "must be >= 0"},
		check{"liars", *liars < 0, "must be >= 0"},
		check{"onoff", *onoff < 0, "must be >= 0"},
		check{"gossip", *gossip < 1, "must be >= 1"},
	) {
		return 2
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // material allocations only, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	if *list {
		t := report.NewTable("registered scenario families", "family", "scenarios", "description")
		for _, f := range scenario.Families() {
			t.AddRow(f.Name, fmt.Sprint(len(f.Specs())), f.Description)
		}
		fmt.Fprint(stdout, t.Render())
		return 0
	}

	// Explicitly-set scale flags win over scenario pins (matching
	// sim's -scenario precedence); unset flags only provide
	// defaults for fields the spec leaves open.
	//
	// applyOverrides overlays the explicitly-set flags on one spec. The
	// migration flags refuse to be dropped silently: without an island
	// count in play they would otherwise leave a serial run that looks
	// like the island experiment the user asked for.
	applyOverrides := func(s *scenario.Spec) error {
		override(c, "generations", &s.Generations, c.generations)
		override(c, "rounds", &s.Rounds, c.rounds)
		override(c, "reps", &s.Repetitions, c.reps)
		override(c, "population", &s.Population, *population)
		if c.set["islands"] {
			if s.Islands == nil {
				s.Islands = &scenario.IslandSpec{}
			}
			s.Islands.Count = *islands
		}
		if s.Dynamics == nil && (c.set["churn"] || c.set["rewire"] || c.set["free-riders"] || c.set["liars"] || c.set["onoff"]) {
			s.Dynamics = &scenario.DynamicsSpec{}
		}
		if d := s.Dynamics; d != nil {
			override(c, "churn", &d.ChurnRate, *churn)
			override(c, "churn-interval", &d.Interval, *churnIntv)
			override(c, "rewire", &d.RewireProb, *rewire)
			override(c, "free-riders", &d.FreeRiders, *freeRiders)
			override(c, "liars", &d.Liars, *liars)
			override(c, "onoff", &d.OnOff, *onoff)
		} else if c.set["churn-interval"] {
			return fmt.Errorf("adhocga evolve: -churn-interval needs -churn or a scenario with a dynamics block (scenario %q has none)", s.Name)
		}
		if c.set["gossip"] {
			if s.Gossip == nil {
				s.Gossip = &scenario.GossipSpec{}
			}
			s.Gossip.Interval = *gossip
		}
		if s.Islands == nil {
			if c.set["topology"] || c.set["migration-interval"] || c.set["migrants"] {
				return fmt.Errorf("adhocga evolve: -topology/-migration-interval/-migrants need -islands or a scenario with an islands block (scenario %q has none)", s.Name)
			}
			return nil
		}
		override(c, "topology", &s.Islands.Topology, *topology)
		override(c, "migration-interval", &s.Islands.Interval, *interval)
		override(c, "migrants", &s.Islands.Migrants, *migrants)
		return nil
	}
	// -case N is the Table 4 registry spec with ID N. Its run seed is
	// pinned to -seed, so a nonzero seed is the case's master seed (0 is
	// the "derive" sentinel throughout the scenario layer, so -seed 0 runs
	// on a stream derived from 0, like every -scenario batch).
	var specs []scenario.Spec
	var pinned uint64
	if *scenarioArg != "" {
		var err error
		if specs, err = scenario.FromArg(*scenarioArg); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if (*csvPath != "" || *savePath != "") && len(specs) != 1 {
			fmt.Fprintln(stderr, "-csv/-save need a single scenario; got", len(specs))
			return 2
		}
	} else {
		for _, s := range scenario.Table4() {
			if s.ID == *caseID {
				specs = append(specs, s)
			}
		}
		if len(specs) == 0 {
			fmt.Fprintf(stderr, "adhocga evolve: no evaluation case %d (want 1-4)\n", *caseID)
			return 2
		}
		pinned = c.seed
	}
	runs := make([]experiment.ScenarioRun, len(specs))
	for i, s := range specs {
		if err := applyOverrides(&s); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		runs[i] = experiment.ScenarioRun{Spec: s, Seed: pinned}
	}

	// One Session per invocation: its shared pool carries every replicate,
	// and SIGINT cancels the submitted job at the next generation barrier.
	session := adhocga.NewSession(adhocga.WithPoolSize(c.par))
	defer session.Close()
	// The scenarios job derives a distinct fallback stream per unpinned
	// scenario from the batch seed; a spec's own pinned seed still wins.
	results, code := runBatch(ctx, session, adhocga.ScenariosSpec{
		Runs:     runs,
		Defaults: experiment.Scale{Name: "custom", Generations: c.generations, Rounds: c.rounds, Repetitions: c.reps},
		Opts:     experiment.Options{Seed: c.seed, Parallelism: c.par},
	}, c.quiet, stdout, stderr)
	if code >= 0 {
		return code
	}

	for i, res := range results {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		printResult(stdout, res)
	}

	if *csvPath != "" {
		if err := writeCSV(*csvPath, results[0]); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "cooperation series written to %s\n", *csvPath)
	}
	if *savePath != "" {
		if err := writeCensus(*savePath, results[0]); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "final census written to %s\n", *savePath)
	}
	return 0
}

func printResult(w io.Writer, res *experiment.CaseResult) {
	c, sc := res.Case, res.Scale
	series := res.CoopMean
	if len(c.Environments) > 1 {
		series = res.MeanEnvCoopMean
	}
	chart := textplot.Chart{
		Title: fmt.Sprintf("%s — cooperation level over %d generations (mean of %d reps)",
			c.Name, sc.Generations, sc.Repetitions),
		YMin: 0, YMax: 1, FixedY: true,
	}
	chart.AddSeries("cooperation", series)
	fmt.Fprintln(w, chart.Render())

	fmt.Fprintf(w, "final cooperation: %s\n", res.FinalCoop)
	if len(c.Environments) > 1 {
		fmt.Fprintf(w, "final env-mean cooperation: %s\n", res.FinalMeanEnvCoop)
		for _, env := range res.PerEnv {
			fmt.Fprintf(w, "  %s: coop %s  csn-free %s\n", env.Name, env.Cooperation, env.CSNFree)
		}
	}

	if res.Islands != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, experiment.IslandTable(res).Render())
		fmt.Fprintf(w, "champion fitness: %s  migrants moved: %d over %d barriers\n",
			res.Islands.ChampionFitness, res.Islands.MigrantsMoved, res.Islands.MigrationEvents)
	}

	if res.Recovery != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, experiment.RecoveryTable(res).Render())
	}
	if d := res.Dynamics; d != nil && d.AdversaryCount() > 0 {
		fmt.Fprintf(w, "byzantine cohort: %d free-riders, %d liars, %d on-off (%s of each tournament)\n",
			d.FreeRiders, d.Liars, d.OnOff,
			report.Percent(float64(d.AdversaryCount())/float64(res.TournamentSize)))
		if res.FromByz.Total() > 0 {
			acc, _, _ := res.FromByz.Fractions()
			fmt.Fprintf(w, "requests from byzantine sources accepted: %s\n", report.Percent(acc))
		}
	}

	top := report.NewTable("\nmost frequent final strategies", "strategy", "share", "family")
	for _, e := range res.Census.Top(5) {
		top.AddRow(e.Strategy.String(), report.Percent(e.Fraction), string(e.Strategy.Classify()))
	}
	fmt.Fprintln(w, top.Render())
	fmt.Fprintf(w, "unknown-node forward share: %s\n", report.Percent(res.Census.UnknownForwardFraction()))
	fmt.Fprintf(w, "mean trust monotonicity: %s\n", report.Percent(res.Census.MeanTrustMonotonicity()))
	fams := res.Census.CategoryCensus()
	fmt.Fprint(w, "behavioral families:")
	for _, cat := range []strategy.Category{strategy.CategoryReciprocal, strategy.CategoryAltruist,
		strategy.CategoryDefector, strategy.CategoryContrarian, strategy.CategoryMixed} {
		if share := fams[cat]; share > 0 {
			fmt.Fprintf(w, "  %s %s", cat, report.Percent(share))
		}
	}
	fmt.Fprintln(w)
}

// writeCensus dumps every distinct final strategy with its population
// share, most frequent first, in the ungrouped notation sim -mix accepts.
func writeCensus(path string, res *experiment.CaseResult) error {
	var sb strings.Builder
	for _, e := range res.Census.Top(1 << 30) {
		fmt.Fprintf(&sb, "%s %.6f\n", e.Strategy.Key(), e.Fraction)
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// writeCSV dumps the per-generation cooperation series (mean and std
// across replications).
func writeCSV(path string, res *experiment.CaseResult) error {
	t := report.NewTable("", "generation", "coop_mean", "coop_std", "mean_env_coop")
	for g := range res.CoopMean {
		t.AddRowf(g, res.CoopMean[g], res.CoopStd[g], res.MeanEnvCoopMean[g])
	}
	return os.WriteFile(path, []byte(t.CSV()), 0o644)
}
