// Command adhocsim runs a one-off ad hoc network tournament with a fixed
// (non-evolved) population mix and reports delivery rates, fitness, and
// forwarding behavior per group — the quickest way to poke at the game
// model without running the GA.
//
// Usage:
//
//	adhocsim -mix all-cooperate:30,trust>=1:10 -csn 10 -rounds 300
//	adhocsim -mix all-cooperate:30 -scenario spec.json
//	adhocsim -list
//
// With -scenario, the tournament's rounds, path mode, and CSN count
// default to the scenario's values (its first environment); explicit
// flags still win. The argument must resolve to exactly one scenario.
//
// The tournament runs as a mix job on a Session (package adhocga), the
// same API adhocd serves; SIGINT before the tournament starts aborts
// cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"adhocga"
	"adhocga/internal/baselines"
	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/report"
	"adhocga/internal/scenario"
	"adhocga/internal/strategy"
	"adhocga/internal/tournament"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: flags parsed from args,
// output to explicit writers, lifetime bound to ctx.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adhocsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mix         = fs.String("mix", "trust>=1:40", "comma-separated profile:count pairs (profile may also be a 13-bit strategy)")
		csn         = fs.Int("csn", 10, "constantly selfish nodes")
		rounds      = fs.Int("rounds", 300, "tournament rounds")
		mode        = fs.String("mode", "SP", "path mode: SP or LP")
		scenarioArg = fs.String("scenario", "", "scenario (JSON file, family, or name) supplying csn/rounds/mode defaults")
		seed        = fs.Uint64("seed", 1, "seed")
		randomPath  = fs.Bool("random-path", false, "choose routes uniformly instead of by reputation")
		gossip      = fs.Int("gossip", 0, "exchange second-hand reputation every N rounds (0 = off)")
		list        = fs.Bool("list", false, "list built-in profiles and exit")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		t := report.NewTable("built-in profiles", "name", "strategy")
		for _, p := range baselines.StandardProfiles() {
			t.AddRow(p.Name, p.Strategy.String())
		}
		fmt.Fprint(stdout, t.Render())
		return 0
	}

	if *scenarioArg != "" {
		if err := applyScenario(fs, *scenarioArg, csn, rounds, mode); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	groups, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pathMode, err := network.ModeByName(*mode)
	if err != nil {
		fmt.Fprintf(stderr, "adhocsim: -mode must be SP or LP, got %q\n", *mode)
		return 2
	}
	cfg := baselines.MixConfig{
		Groups: groups,
		CSN:    *csn,
		Rounds: *rounds,
		Mode:   pathMode,
		Game:   game.DefaultConfig(),
		Seed:   *seed,
	}
	if *randomPath {
		cfg.PathChoice = tournament.RandomPath
	}
	// CORE-style gossip defaults (positive reports only, modest
	// credibility) are applied inside RunMix when the interval is set.
	cfg.GossipInterval = *gossip
	session := adhocga.NewSession(adhocga.WithPoolSize(1))
	defer session.Close()
	res, err := session.RunMix(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "cooperation level (normal-originated delivery): %s\n", report.Percent(res.Cooperation))
	if *csn > 0 {
		fmt.Fprintf(stdout, "CSN delivery rate: %s\n", report.Percent(res.CSNDelivery))
	}
	t := report.NewTable("\nper-group outcomes", "group", "delivery", "fitness", "forward share")
	for _, g := range res.Groups {
		t.AddRow(g.Name, report.Percent(g.DeliveryRate),
			report.FormatFloat(g.Fitness), report.Percent(g.ForwardShare))
	}
	fmt.Fprint(stdout, t.Render())
	return 0
}

// applyScenario overwrites the csn/rounds/mode defaults with the first
// loaded scenario's values wherever the user did not set the flag
// explicitly in fs.
func applyScenario(fs *flag.FlagSet, arg string, csn, rounds *int, mode *string) error {
	specs, err := scenario.FromArg(arg)
	if err != nil {
		return err
	}
	if len(specs) != 1 {
		return fmt.Errorf("adhocsim: -scenario %q resolves to %d scenarios, need exactly one", arg, len(specs))
	}
	spec := specs[0]
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["csn"] {
		*csn = spec.Environments[0].CSN
	}
	if !set["rounds"] && spec.Rounds > 0 {
		*rounds = spec.Rounds
	}
	if !set["mode"] {
		m, err := spec.Mode()
		if err != nil {
			return err
		}
		*mode = m.Name
	}
	return nil
}

// parseMix parses "name:count,name:count". A name that is not a built-in
// profile is parsed as a 13-bit strategy string.
func parseMix(s string) ([]baselines.Group, error) {
	var groups []baselines.Group
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		idx := strings.LastIndex(part, ":")
		if idx < 0 {
			return nil, fmt.Errorf("mix entry %q is not profile:count", part)
		}
		name, countStr := part[:idx], part[idx+1:]
		count, err := strconv.Atoi(countStr)
		if err != nil {
			return nil, fmt.Errorf("mix entry %q: bad count: %v", part, err)
		}
		profile, err := baselines.ProfileByName(name)
		if err != nil {
			st, perr := strategy.Parse(name)
			if perr != nil {
				return nil, fmt.Errorf("mix entry %q: not a profile (%v) nor a strategy (%v)", part, err, perr)
			}
			profile = baselines.Profile{Name: name, Strategy: st}
		}
		groups = append(groups, baselines.Group{Profile: profile, Count: count})
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return groups, nil
}
