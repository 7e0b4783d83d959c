// Command league manages hall-of-fame champion archives and plays
// cross-generation round-robin leagues over them.
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
// Usage:
//
//	league -archive hof -harvest -case 1 -generations 40 -reps 2 -seed 1
//	league -archive hof -list
//	league -archive hof -baselines -seed 7
//	league -archive hof -ids "job-1/case 1 (TE1, SP)/r0/g39" -ids "job-1/case 1 (TE1, SP)/r1/g39"
//	league -baselines -seed 7     # scripted baselines only, no archive
//	league -harvest -case 1 -generations 20 -reps 1 -baselines -seed 7 -json
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
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"adhocga"
	"adhocga/internal/league"
	"adhocga/internal/network"
	"adhocga/internal/report"
	"adhocga/internal/scenario"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: flags parsed from args,
// output to explicit writers, lifetime bound to ctx.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("league", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		archiveDir  = fs.String("archive", "", "champion archive directory (WAL-backed, restart-safe); empty = in-memory for this invocation")
		list        = fs.Bool("list", false, "list the archive's champions and exit (after -harvest, if given)")
		harvest     = fs.Bool("harvest", false, "run a checkpointed Table 4 evolution first, archiving champions")
		caseID      = fs.Int("case", 1, "harvest: evaluation case 1-4, or 0 for all four")
		generations = fs.Int("generations", 40, "harvest: generations per replication")
		reps        = fs.Int("reps", 2, "harvest: independent replications per case")
		checkpoints = fs.Int("checkpoints", 10, "harvest: archive a champion every this many generations (the final generation is always archived)")
		ids         idList
		baselines   = fs.Bool("baselines", false, "seat the scripted baselines: all-forward, never-forward, and the paper's reciprocal winner")
		perSide     = fs.Int("per-side", 10, "evolving players fielded per seat in each match")
		matches     = fs.Int("matches", 2, "matches per seat pair")
		rounds      = fs.Int("rounds", 100, "rounds per tournament (harvest matches too)")
		csn         = fs.Int("csn", 0, "constantly-selfish nodes seated in every league match")
		pathMode    = fs.String("path", "SP", "path selection mode: SP (shorter) or LP (longer)")
		seed        = fs.Uint64("seed", 1, "master seed (harvest and league derive independent streams)")
		par         = fs.Int("par", 0, "worker pool size (0 = all cores)")
		jsonOut     = fs.Bool("json", false, "emit the league table as JSON instead of text")
	)
	fs.Var(&ids, "ids", "champion ID to seat; repeat for more (none = the whole archive)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if _, err := network.ModeByName(*pathMode); err != nil {
		fmt.Fprintf(stderr, "league: -path must be SP or LP, got %q\n", *pathMode)
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
			fmt.Fprintf(stderr, "league: skipped %d corrupt champion records in %s\n", n, *archiveDir)
		}
	} else {
		archive = league.NewMemArchive()
	}
	defer archive.Close()

	session := adhocga.NewSession(
		adhocga.WithPoolSize(*par),
		adhocga.WithChampionArchive(archive),
	)
	defer session.Close()

	if *harvest {
		if err := runHarvest(ctx, session, archive, *caseID, *generations, *rounds, *reps, *checkpoints, *seed, *par, stdout); err != nil {
			fmt.Fprintln(stderr, err)
			if ctx.Err() != nil {
				return 130
			}
			return 1
		}
	}

	if *list {
		t := report.NewTable(fmt.Sprintf("champion archive (%s, %d champions)", archive.Backend(), archive.Len()),
			"id", "gen", "category", "coop", "fitness", "genome")
		for _, c := range archive.List() {
			t.AddRow(c.ID, fmt.Sprint(c.Generation), c.Category,
				fmt.Sprintf("%.3f", c.Cooperativeness), fmt.Sprintf("%.3f", c.Fitness), c.Genome)
		}
		fmt.Fprint(stdout, t.Render())
		return 0
	}

	// Select up front so an unknown champion or a seatless league is a
	// usage error (exit 2) rather than a failed job.
	champs, err := archive.Select(ids)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	seats := len(champs)
	if *baselines {
		seats += len(league.BaselineSeats())
	}
	if seats < 2 {
		fmt.Fprintf(stderr, "league: only %d seats (archive has %d champions; add -baselines or -harvest)\n", seats, archive.Len())
		return 2
	}

	table, err := session.RunLeague(ctx, adhocga.LeagueJobSpec{
		ChampionIDs:      ids,
		IncludeBaselines: *baselines,
		PerSide:          *perSide,
		CSN:              *csn,
		MatchesPerPair:   *matches,
		Rounds:           *rounds,
		PathMode:         *pathMode,
		Seed:             *seed,
		Parallelism:      *par,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		if ctx.Err() != nil {
			return 130
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

// runHarvest runs the selected checkpointed Table 4 case(s) on the
// session wired to the archive, so every checkpoint generation's best
// strategy lands in the hall of fame.
func runHarvest(ctx context.Context, session *adhocga.Session, archive *league.Archive, caseID, generations, rounds, reps, checkpoints int, seed uint64, par int, stdout io.Writer) error {
	if caseID < 0 || caseID > 4 {
		return fmt.Errorf("league: -case must be 0 (all) or 1-4, got %d", caseID)
	}
	if generations < 1 || rounds < 1 || reps < 1 || checkpoints < 1 {
		return fmt.Errorf("league: -generations, -rounds, -reps, and -checkpoints must be >= 1")
	}
	var runs []adhocga.ScenarioRun
	for _, spec := range scenario.Table4() {
		if caseID != 0 && spec.ID != caseID {
			continue
		}
		spec.Checkpoints = checkpoints
		runs = append(runs, adhocga.ScenarioRun{Spec: spec})
	}
	before := archive.Len()
	job, err := session.Submit(ctx, adhocga.ScenariosSpec{
		Runs:     runs,
		Defaults: adhocga.Scale{Name: "harvest", Generations: generations, Rounds: rounds, Repetitions: reps},
		Opts:     adhocga.RunOptions{Seed: seed, Parallelism: par},
	})
	if err != nil {
		return err
	}
	if err := job.Wait(ctx); err != nil {
		return fmt.Errorf("league: harvest: %w", err)
	}
	fmt.Fprintf(stdout, "harvested %d champions into %s archive (%d total)\n",
		archive.Len()-before, archive.Backend(), archive.Len())
	return nil
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
