package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"adhocga"
	"adhocga/internal/experiment"
	"adhocga/internal/report"
	"adhocga/internal/scenario"
)

// artifacts are the names -only accepts: the paper's Fig 4 and Tables
// 5–9, the opt-in dynamics extension tables, and "all".
var artifacts = []string{"fig4", "table5", "table6", "table7", "table8", "table9", "churn", "adversaries", "adversary", "all"}

// runExperiments is the experiments subcommand: it regenerates every
// table and figure of the paper's evaluation section at a chosen scale,
// printing paper-vs-measured tables, plus the dynamics extension's
// churn-recovery and adversary tables.
//
//	adhocga experiments -scale default            # all paper tables, minutes
//	adhocga experiments -scale smoke -only fig4   # quick single artifact
//	adhocga experiments -scale paper -par 24      # the full 60-repetition run
//	adhocga experiments -only churn               # churn-sweep family + recovery tables
//	adhocga experiments -only adversaries         # adversary-grid family
//	adhocga experiments -markdown > results.md
//
// Fig 4 needs cases 1–4; Tables 5–9 need cases 3 and 4. The "churn" and
// "adversaries" artifacts run the churn-sweep and adversary-grid scenario
// families (internal/scenario) and render the recovery-after-churn and
// cooperation-vs-adversary-fraction tables; they are opt-in (not part of
// "all") because they answer questions beyond the paper. The harness runs
// exactly the scenarios the requested artifacts need, batched over one
// shared worker pool so replicates interleave and no cores idle.
// -generations/-rounds/-reps, when set, override the scale preset.
func runExperiments(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := newCommand("experiments", stderr)
	c.seed = 2007
	c.shared("generations", "rounds", "reps", "seed", "par", "q")
	fs := c.fs
	var (
		scaleName = fs.String("scale", "default", "scale preset: smoke, default, or paper")
		only      = fs.String("only", "all", "comma list of artifacts: "+strings.Join(artifacts, ","))
		markdown  = fs.Bool("markdown", false, "emit Markdown tables instead of plain text")
		jsonPath  = fs.String("json", "", "also write raw results as JSON to this file")
		islands   = fs.Bool("islands", false, "run the cases on the island-model engine (table4-islands: population 200 over a 4-island ring)")
	)
	if code := c.parse(args); code >= 0 {
		return code
	}
	if !c.valid() {
		return 2
	}

	sc, err := experiment.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	override(c, "generations", &sc.Generations, c.generations)
	override(c, "rounds", &sc.Rounds, c.rounds)
	override(c, "reps", &sc.Repetitions, c.reps)

	want := map[string]bool{}
	for _, a := range strings.Split(*only, ",") {
		a = strings.TrimSpace(strings.ToLower(a))
		if a == "" {
			continue
		}
		if !slices.Contains(artifacts, a) {
			fmt.Fprintf(stderr, "%s: -only: unknown artifact %q (valid: %s)\n", fs.Name(), a, strings.Join(artifacts, ","))
			return 2
		}
		want[a] = true
	}
	all := want["all"]
	needCase := map[int]bool{}
	if all || want["fig4"] {
		needCase[1], needCase[2], needCase[3], needCase[4] = true, true, true, true
	}
	if all || want["table5"] || want["table6"] || want["table7"] || want["table8"] || want["table9"] {
		needCase[3] = true
		needCase[4] = true
	}
	wantChurn := want["churn"]
	wantAdv := want["adversaries"] || want["adversary"]
	if len(needCase) == 0 && !wantChurn && !wantAdv {
		fmt.Fprintf(stderr, "nothing to do for -only=%s\n", *only)
		return 2
	}
	// WriteJSON covers the paper cases only; refuse up front rather than
	// exit 0 having silently skipped the user's requested artifact.
	if *jsonPath != "" && len(needCase) == 0 {
		fmt.Fprintln(stderr, "experiments: -json covers the paper cases; add fig4 or a table to -only")
		return 2
	}

	render := func(t *report.Table) string {
		if *markdown {
			return t.Markdown()
		}
		return t.Render()
	}

	// One Session per invocation: each artifact batch is a job on its
	// shared pool, interruptible at generation barriers.
	session := adhocga.NewSession(adhocga.WithPoolSize(c.par))
	defer session.Close()
	batch := func(runs []experiment.ScenarioRun) ([]*experiment.CaseResult, int) {
		return runBatch(ctx, session, adhocga.ScenariosSpec{
			Runs: runs, Defaults: sc,
			Opts: experiment.Options{Seed: c.seed, Parallelism: c.par},
		}, c.quiet, stdout, stderr)
	}

	// One batch over a single shared worker pool. Per-case seeds match
	// the old per-case runs (seed + id), so the numbers are unchanged;
	// only the scheduling is denser.
	if len(needCase) > 0 {
		specs := scenario.Table4()
		if *islands {
			specs = scenario.Table4Islands()
		}
		var runs []experiment.ScenarioRun
		for _, spec := range specs {
			if !needCase[spec.ID] {
				continue
			}
			runs = append(runs, experiment.ScenarioRun{Spec: spec, Seed: c.seed + uint64(spec.ID)})
		}
		// Seed doubles as the batch fallback so a wrapped per-case seed
		// of 0 still derives deterministically from the invocation seed.
		if !c.quiet {
			for _, r := range runs {
				fmt.Fprintf(stderr, "queued %s at scale %q (%d generations × %d reps)\n",
					r.Spec.Name, sc.Name, sc.Generations, sc.Repetitions)
			}
		}
		resList, code := batch(runs)
		if code >= 0 {
			return code
		}
		results := map[int]*experiment.CaseResult{}
		for i, res := range resList {
			results[runs[i].Spec.ID] = res
		}

		if *jsonPath != "" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			if err := experiment.WriteJSON(f, results, 10); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}

		if all || want["fig4"] {
			fmt.Fprintln(stdout, experiment.Fig4Chart(results))
			fmt.Fprintln(stdout, render(experiment.Fig4Table(results)))
		}
		if all || want["table5"] {
			fmt.Fprintln(stdout, render(experiment.Table5(results[3], results[4])))
		}
		if all || want["table6"] {
			fmt.Fprintln(stdout, render(experiment.Table6(results[3], results[4])))
		}
		if all || want["table7"] {
			fmt.Fprintln(stdout, render(experiment.Table7(results[3], results[4])))
		}
		if all || want["table8"] {
			fmt.Fprintln(stdout, render(experiment.Table8(results[3])))
		}
		if all || want["table9"] {
			fmt.Fprintln(stdout, render(experiment.Table9(results[4])))
		}
		for id := 1; id <= 4; id++ {
			if res := results[id]; res != nil && res.Islands != nil {
				fmt.Fprintln(stdout, render(experiment.IslandTable(res)))
			}
		}
	}

	// The dynamics artifacts run their scenario families end to end and
	// render the extension tables.
	runFamily := func(name string) ([]*experiment.CaseResult, int) {
		fam, err := scenario.FamilyByName(name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return nil, 1
		}
		var runs []experiment.ScenarioRun
		for _, spec := range fam.Specs() {
			runs = append(runs, experiment.ScenarioRun{Spec: spec})
		}
		return batch(runs)
	}
	if wantChurn {
		results, code := runFamily("churn-sweep")
		if code >= 0 {
			return code
		}
		fmt.Fprintln(stdout, render(experiment.ChurnSweepTable(results)))
		for _, res := range results {
			if t := experiment.RecoveryTable(res); t != nil {
				fmt.Fprintln(stdout, render(t))
			}
		}
	}
	if wantAdv {
		results, code := runFamily("adversary-grid")
		if code >= 0 {
			return code
		}
		fmt.Fprintln(stdout, render(experiment.AdversaryTable(results)))
	}
	return 0
}
