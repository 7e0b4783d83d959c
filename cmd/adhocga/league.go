package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"adhocga"
	"adhocga/internal/league"
	"adhocga/internal/report"
	"adhocga/internal/scenario"
)

// runLeague is the league subcommand: it manages hall-of-fame champion
// archives and plays cross-generation round-robin leagues over them.
//
// A champion archive collects the best strategy of selected generations
// ("checkpoints") from evolutionary runs: who was winning at generation
// 10, 20, ... of each replicate, with full provenance (job, scenario,
// replicate seed, classification). A league then seats any selection of
// those frozen champions — optionally alongside the scripted baselines
// (all-forward, never-forward, and the paper's Table 7 reciprocal
// winner) — and plays every pair against each other in tournament
// matches, producing a standings table with win rates, mean payoffs, and
// the full head-to-head matrix. Because every champion is a snapshot of
// a different generation, the table answers a question a single run
// cannot: does evolution actually produce monotonically stronger
// strategies, or do late winners lose to their own ancestors?
//
//	adhocga league -archive hof -harvest -case 1 -generations 40 -reps 2 -seed 1
//	adhocga league -archive hof -list
//	adhocga league -archive hof -baselines -seed 7
//	adhocga league -archive hof -ids "job-1/case 1 (TE1, SP)/r0/g39" -ids "job-1/case 1 (TE1, SP)/r1/g39"
//	adhocga league -baselines -seed 7     # scripted baselines only, no archive
//	adhocga league -harvest -case 1 -generations 20 -reps 1 -baselines -seed 7 -json
//
// -harvest runs the selected Table 4 case (or all four with -case 0)
// with generation checkpoints enabled, archiving champions as it goes;
// without -list it then plays the league over what it just harvested, so
// the last example is a self-contained one-shot demo. -ids is
// repeatable, one whole champion ID per occurrence (IDs contain commas
// and spaces, so nothing is split). -archive names a directory persisted
// through the same WAL machinery as adhocd's file store (omit it for a
// throwaway in-memory archive). The league runs as the same
// LeagueJobSpec a daemon league job does, so the table is deterministic
// for a fixed -seed at any -par, and -json emits it as the same JSON
// document GET /v1/jobs/{id} returns for a daemon league job.
func runLeague(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := newCommand("league", stderr)
	c.generations, c.rounds, c.reps, c.seed, c.mode = 40, 100, 2, 1, "SP"
	c.shared("generations", "rounds", "reps", "seed", "par", "csn", "mode")
	fs := c.fs
	var (
		archiveDir  = fs.String("archive", "", "champion archive directory (WAL-backed, restart-safe); empty = in-memory for this invocation")
		list        = fs.Bool("list", false, "list the archive's champions and exit (after -harvest, if given)")
		harvest     = fs.Bool("harvest", false, "run a checkpointed Table 4 evolution first, archiving champions (uses -case, -generations, -reps, -checkpoints and -rounds)")
		caseID      = fs.Int("case", 1, "harvest: evaluation case 1-4, or 0 for all four")
		checkpoints = fs.Int("checkpoints", 10, "harvest: archive a champion every this many generations (the final generation is always archived)")
		ids         idList
		baselines   = fs.Bool("baselines", false, "seat the scripted baselines: all-forward, never-forward, and the paper's reciprocal winner")
		perSide     = fs.Int("per-side", 10, "evolving players fielded per seat in each match")
		matches     = fs.Int("matches", 2, "matches per seat pair")
		jsonOut     = fs.Bool("json", false, "emit the league table as JSON instead of text")
	)
	fs.Var(&ids, "ids", "champion ID to seat; repeat for more (none = the whole archive)")
	if code := c.parse(args); code >= 0 {
		return code
	}
	if !c.valid(
		check{"case", *caseID < 0 || *caseID > 4, "must be 0 (all) or 1-4"},
		check{"checkpoints", *checkpoints < 1, "must be >= 1"},
		check{"per-side", *perSide < 1, "must be >= 1"},
		check{"matches", *matches < 1, "must be >= 1"},
	) {
		return 2
	}

	var (
		archive *league.Archive
		err     error
	)
	if *archiveDir != "" {
		archive, err = league.OpenDir(*archiveDir)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if n := archive.Skipped(); n > 0 {
			fmt.Fprintf(stderr, "adhocga league: skipped %d corrupt champion records in %s\n", n, *archiveDir)
		}
	} else {
		archive = league.NewMemArchive()
	}
	defer archive.Close()

	session := adhocga.NewSession(
		adhocga.WithPoolSize(c.par),
		adhocga.WithChampionArchive(archive),
	)
	defer session.Close()

	// -harvest runs the selected checkpointed Table 4 case(s) on the
	// session wired to the archive, so every checkpoint generation's best
	// strategy lands in the hall of fame. The batch seed derives each
	// case's stream. The harvest prints no progress line: league output
	// is the table.
	if *harvest {
		var runs []adhocga.ScenarioRun
		for _, spec := range scenario.Table4() {
			if *caseID == 0 || spec.ID == *caseID {
				spec.Checkpoints = *checkpoints
				runs = append(runs, adhocga.ScenarioRun{Spec: spec})
			}
		}
		before := archive.Len()
		if _, code := runBatch(ctx, session, adhocga.ScenariosSpec{
			Runs:     runs,
			Defaults: adhocga.Scale{Name: "harvest", Generations: c.generations, Rounds: c.rounds, Repetitions: c.reps},
			Opts:     adhocga.RunOptions{Seed: c.seed, Parallelism: c.par},
		}, true, stdout, stderr); code >= 0 {
			return code
		}
		fmt.Fprintf(stdout, "harvested %d champions into %s archive (%d total)\n",
			archive.Len()-before, archive.Backend(), archive.Len())
	}

	if *list {
		t := report.NewTable(fmt.Sprintf("champion archive (%s, %d champions)", archive.Backend(), archive.Len()),
			"id", "gen", "category", "coop", "fitness", "genome")
		for _, ch := range archive.List() {
			t.AddRow(ch.ID, fmt.Sprint(ch.Generation), ch.Category,
				fmt.Sprintf("%.3f", ch.Cooperativeness), fmt.Sprintf("%.3f", ch.Fitness), ch.Genome)
		}
		fmt.Fprint(stdout, t.Render())
		return 0
	}

	spec := adhocga.LeagueJobSpec{
		ChampionIDs:      ids,
		IncludeBaselines: *baselines,
		PerSide:          *perSide,
		CSN:              c.csn,
		MatchesPerPair:   *matches,
		Rounds:           c.rounds,
		PathMode:         c.mode,
		Seed:             c.seed,
		Parallelism:      c.par,
	}
	// Validate up front so an unknown champion or a seatless league is a
	// usage error (exit 2) rather than a failed job.
	if err := spec.Validate(archive); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	table, err := session.RunLeague(ctx, spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		if ctx.Err() != nil {
			return interruptedExit
		}
		return 1
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(table); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	printTable(stdout, table)
	return 0
}

// idList is the repeatable -ids flag: each occurrence adds one champion
// ID verbatim.
type idList []string

func (l *idList) String() string { return strings.Join(*l, " ") }

func (l *idList) Set(id string) error {
	*l = append(*l, id)
	return nil
}

// printTable renders the standings and the head-to-head matrix as text.
func printTable(w io.Writer, table *league.Table) {
	t := report.NewTable(fmt.Sprintf("league table (%d seats, %d matches, seed %d)", len(table.Seats), table.Matches, table.Seed),
		"rank", "seat", "kind", "P", "W", "D", "L", "pts", "win rate", "mean payoff")
	for i, s := range table.Standings {
		t.AddRow(fmt.Sprint(i+1), s.Name, s.Kind,
			fmt.Sprint(s.Played), fmt.Sprint(s.Wins), fmt.Sprint(s.Draws), fmt.Sprint(s.Losses),
			fmt.Sprintf("%.1f", s.Points), fmt.Sprintf("%.3f", s.WinRate), fmt.Sprintf("%.3f", s.MeanPayoff))
	}
	fmt.Fprint(w, t.Render())
	if len(table.Standings) > 0 {
		winner := table.Standings[0]
		fmt.Fprintf(w, "\nwinner: %s (%s) genome %s\n", winner.Name, winner.Kind, winner.Genome)
	}

	// The head-to-head matrix, row beats column: H[i][j] is the match
	// points seat i took off seat j.
	h := report.NewTable("head-to-head (points row took off column)", append([]string{""}, shortNames(table.Seats)...)...)
	for i, name := range shortNames(table.Seats) {
		row := []string{name}
		for j := range table.Seats {
			if i == j {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.1f", table.HeadToHead[i][j]))
		}
		h.AddRow(row...)
	}
	fmt.Fprint(w, "\n"+h.Render())
}

// shortNames trims seat names to their last two path segments so the
// head-to-head matrix stays readable for slash-heavy champion IDs.
func shortNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		parts := strings.Split(n, "/")
		if len(parts) > 2 {
			parts = parts[len(parts)-2:]
		}
		out[i] = strings.Join(parts, "/")
	}
	return out
}
