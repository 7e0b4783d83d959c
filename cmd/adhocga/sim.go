package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"adhocga"
	"adhocga/internal/baselines"
	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/report"
	"adhocga/internal/scenario"
	"adhocga/internal/strategy"
	"adhocga/internal/tournament"
)

// runSim is the sim subcommand: it runs a one-off ad hoc network
// tournament with a fixed (non-evolved) population mix and reports
// delivery rates, fitness, and forwarding behavior per group — the
// quickest way to poke at the game model without running the GA.
//
//	adhocga sim -mix all-cooperate:30,trust>=1:10 -csn 10 -rounds 300
//	adhocga sim -mix all-cooperate:30 -scenario spec.json
//	adhocga sim -list
//
// With -scenario, the tournament's rounds, path mode, and CSN count
// default to the scenario's values (its first environment); explicit
// flags still win. The argument must resolve to exactly one scenario.
// The tournament runs as a mix job on a Session, the same API adhocd
// serves.
func runSim(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := newCommand("sim", stderr)
	c.csn, c.rounds, c.mode, c.seed = 10, 300, "SP", 1
	c.shared("csn", "rounds", "mode", "seed")
	fs := c.fs
	var (
		mix         = fs.String("mix", "trust>=1:40", "comma-separated profile:count pairs (profile may also be a 13-bit strategy)")
		scenarioArg = fs.String("scenario", "", "scenario (JSON file, family, or name) supplying csn/rounds/mode defaults")
		randomPath  = fs.Bool("random-path", false, "choose routes uniformly instead of by reputation")
		gossip      = fs.Int("gossip", 0, "exchange second-hand reputation every N rounds (0 = off)")
		list        = fs.Bool("list", false, "list built-in profiles and exit")
	)
	if code := c.parse(args); code >= 0 {
		return code
	}
	if !c.valid() {
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
		if err := applyScenario(c, *scenarioArg); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	groups, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// The mode is valid: the flag table checked an explicit -mode, and a
	// scenario's mode comes from its validated spec.
	pathMode, _ := network.ModeByName(c.mode)
	cfg := baselines.MixConfig{
		Groups: groups,
		CSN:    c.csn,
		Rounds: c.rounds,
		Mode:   pathMode,
		Game:   game.DefaultConfig(),
		Seed:   c.seed,
	}
	if *randomPath {
		cfg.PathChoice = tournament.RandomPath
	}
	// CORE-style gossip defaults (positive reports only, modest
	// credibility) are applied inside RunMix when the interval is set.
	cfg.GossipInterval = *gossip
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	session := adhocga.NewSession(adhocga.WithPoolSize(1))
	defer session.Close()
	res, err := session.RunMix(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "cooperation level (normal-originated delivery): %s\n", report.Percent(res.Cooperation))
	if c.csn > 0 {
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

// applyScenario overwrites c's csn/rounds/mode defaults with the first
// loaded scenario's values wherever the user did not set the flag
// explicitly.
func applyScenario(c *command, arg string) error {
	specs, err := scenario.FromArg(arg)
	if err != nil {
		return err
	}
	if len(specs) != 1 {
		return fmt.Errorf("adhocga sim: -scenario %q resolves to %d scenarios, need exactly one", arg, len(specs))
	}
	spec := specs[0]
	if !c.set["csn"] {
		c.csn = spec.Environments[0].CSN
	}
	if !c.set["rounds"] && spec.Rounds > 0 {
		c.rounds = spec.Rounds
	}
	if !c.set["mode"] {
		m, err := spec.Mode()
		if err != nil {
			return err
		}
		c.mode = m.Name
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
