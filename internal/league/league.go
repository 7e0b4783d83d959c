package league

import (
	"context"
	"fmt"
	"sort"

	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/runner"
	"adhocga/internal/strategy"
	"adhocga/internal/tournament"
)

// Seat kinds: where a league participant came from.
const (
	SeatChampion = "champion" // archived hall-of-fame strategy
	SeatBaseline = "baseline" // scripted agent
)

// Seat is one league participant: a named strategy. In a match the seat
// is expanded to Config.PerSide identical players, so the league measures
// strategy-vs-strategy outcomes (a homogeneous team per side) rather than
// single-player luck.
type Seat struct {
	Name     string            `json:"name"`
	Kind     string            `json:"kind"`
	Genome   string            `json:"genome"`
	Strategy strategy.Strategy `json:"-"`
}

// BaselineSeats returns the scripted agents every league can include:
// the unconditional altruist, the unconditional defector, and the
// paper's Table 7 reciprocal winner.
func BaselineSeats() []Seat {
	return []Seat{
		{Name: "baseline/all-forward", Kind: SeatBaseline, Strategy: strategy.AllForward()},
		{Name: "baseline/never-forward", Kind: SeatBaseline, Strategy: strategy.AllDiscard()},
		{Name: "baseline/paper-winner", Kind: SeatBaseline, Strategy: strategy.MustParse("010 101 101 111 1")},
	}
}

// ChampionSeat converts an archived champion into a league seat named
// "champion/<id>".
func ChampionSeat(c Champion) (Seat, error) {
	s, err := c.Strategy()
	if err != nil {
		return Seat{}, err
	}
	return Seat{Name: "champion/" + c.ID, Kind: SeatChampion, Genome: c.Genome, Strategy: s}, nil
}

// Config parameterizes a league run: who plays, how each pairing is
// staged, and the root seed everything derives from.
type Config struct {
	// Seats are the participants, in a caller-chosen deterministic order
	// (the head-to-head matrix is indexed by this order). Names must be
	// unique. At least two.
	Seats []Seat
	// PerSide is how many identical players represent each seat in a
	// match (default 10). CSN constantly selfish nodes join every match
	// as environmental pressure (default 0).
	PerSide int
	CSN     int
	// MatchesPerPair repeats each pairing under fresh seeds (default 2);
	// Rounds is the tournament length per match (default 100).
	MatchesPerPair int
	Rounds         int
	// Mode is the path mode (default SP); Game the game rules (zero value
	// = paper defaults); Seed the root seed.
	Mode network.PathMode
	Game game.Config
	Seed uint64
	// Parallelism caps how many of the pool's slots the matches use (0 =
	// no cap beyond the pool). It cannot change results: match seeds are
	// pre-derived and outcomes land in index-addressed slots.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.PerSide == 0 {
		c.PerSide = 10
	}
	if c.MatchesPerPair == 0 {
		c.MatchesPerPair = 2
	}
	if c.Rounds == 0 {
		c.Rounds = 100
	}
	if c.Mode.Name == "" {
		c.Mode = network.ShorterPaths()
	}
	if c.Game == (game.Config{}) {
		c.Game = game.DefaultConfig()
	}
	return c
}

// Validate applies the defaults and checks the config: at least two
// seats, unique non-empty seat names, and the engine knobs.
func (c Config) Validate() error {
	c = c.withDefaults()
	if len(c.Seats) < 2 {
		return fmt.Errorf("league: need at least 2 seats, have %d", len(c.Seats))
	}
	seen := make(map[string]bool, len(c.Seats))
	for _, s := range c.Seats {
		if s.Name == "" {
			return fmt.Errorf("league: seat with empty name")
		}
		if seen[s.Name] {
			return fmt.Errorf("league: duplicate seat %q", s.Name)
		}
		seen[s.Name] = true
	}
	if c.PerSide < 1 {
		return fmt.Errorf("league: per-side count must be ≥ 1, got %d", c.PerSide)
	}
	if c.CSN < 0 {
		return fmt.Errorf("league: negative CSN count")
	}
	if c.MatchesPerPair < 1 {
		return fmt.Errorf("league: matches per pair must be ≥ 1, got %d", c.MatchesPerPair)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("league: rounds must be ≥ 1, got %d", c.Rounds)
	}
	if err := (runner.Options{Parallelism: c.Parallelism}).Validate(); err != nil {
		return fmt.Errorf("league: %w", err)
	}
	return c.Game.Validate()
}

// Standing is one seat's row in the league table.
type Standing struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Genome string `json:"genome,omitempty"`
	Played int    `json:"played"`
	Wins   int    `json:"wins"`
	Draws  int    `json:"draws"`
	Losses int    `json:"losses"`
	// Points is wins + draws/2; WinRate is points normalized by matches
	// played; MeanPayoff is the seat's mean per-player eq. 1 fitness over
	// all of its matches.
	Points     float64 `json:"points"`
	WinRate    float64 `json:"win_rate"`
	MeanPayoff float64 `json:"mean_payoff"`
}

// Table is the league outcome: standings sorted best-first plus the full
// head-to-head matrix. Its JSON form is deterministic for a fixed Config
// regardless of parallelism — the determinism tests byte-compare it.
type Table struct {
	// Seats lists seat names in Config order; HeadToHead is indexed by
	// this order: HeadToHead[i][j] holds the points seat i took from its
	// matches against seat j (win 1, draw ½ each).
	Seats      []string    `json:"seats"`
	Standings  []Standing  `json:"standings"`
	HeadToHead [][]float64 `json:"head_to_head"`
	// Matches is the total number of matches played.
	Matches int    `json:"matches"`
	Seed    uint64 `json:"seed"`
}

// RunContext plays a full round-robin league: every pair of seats meets
// MatchesPerPair times, each match seating PerSide copies of both
// strategies plus CSN selfish nodes in one tournament evaluation (the
// same EvaluateWithAdversaries path the GA engine scores generations
// with), and each side scoring the mean eq. 1 fitness of its players.
// The side with the higher mean wins the match; exact ties split the
// point.
//
// The calling goroutine must hold one of pool's slots (it runs inside a
// pool task): the matches run through pool.Share, on that goroutine plus
// any slots free at the time.
//
// Deterministic for a fixed config at any Parallelism, pool size or
// GOMAXPROCS: match seeds are drawn from the root seed in (pair,
// repetition) order before any match runs, and every match owns all of
// its mutable state.
func RunContext(ctx context.Context, pool *runner.Pool, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	type match struct {
		a, b int // seat indices, a < b
		seed uint64
		// filled by the worker:
		payoffA, payoffB float64
	}
	master := rng.New(cfg.Seed)
	var matches []match
	for a := 0; a < len(cfg.Seats); a++ {
		for b := a + 1; b < len(cfg.Seats); b++ {
			for rep := 0; rep < cfg.MatchesPerPair; rep++ {
				matches = append(matches, match{a: a, b: b, seed: master.Uint64()})
			}
		}
	}

	err := pool.Share(ctx, len(matches), func(i int) error {
		m := &matches[i]
		pa, pb, err := playMatch(cfg.Seats[m.a], cfg.Seats[m.b], cfg, m.seed)
		if err != nil {
			return err
		}
		m.payoffA, m.payoffB = pa, pb
		return nil
	}, runner.Options{Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, err
	}

	n := len(cfg.Seats)
	t := &Table{
		Seats:      make([]string, n),
		Standings:  make([]Standing, n),
		HeadToHead: make([][]float64, n),
		Matches:    len(matches),
		Seed:       cfg.Seed,
	}
	payoff := make([]float64, n)
	played := make([]int, n)
	for i, s := range cfg.Seats {
		t.Seats[i] = s.Name
		t.HeadToHead[i] = make([]float64, n)
		genome := s.Genome
		if genome == "" {
			genome = s.Strategy.Key()
		}
		t.Standings[i] = Standing{Name: s.Name, Kind: s.Kind, Genome: genome}
	}
	for _, m := range matches {
		sa, sb := &t.Standings[m.a], &t.Standings[m.b]
		sa.Played++
		sb.Played++
		played[m.a]++
		played[m.b]++
		payoff[m.a] += m.payoffA
		payoff[m.b] += m.payoffB
		switch {
		case m.payoffA > m.payoffB:
			sa.Wins++
			sb.Losses++
			t.HeadToHead[m.a][m.b]++
		case m.payoffB > m.payoffA:
			sb.Wins++
			sa.Losses++
			t.HeadToHead[m.b][m.a]++
		default:
			sa.Draws++
			sb.Draws++
			t.HeadToHead[m.a][m.b] += 0.5
			t.HeadToHead[m.b][m.a] += 0.5
		}
	}
	for i := range t.Standings {
		s := &t.Standings[i]
		s.Points = float64(s.Wins) + float64(float64(s.Draws)/2)
		if s.Played > 0 {
			s.WinRate = s.Points / float64(s.Played)
			s.MeanPayoff = payoff[i] / float64(played[i])
		}
	}
	sort.SliceStable(t.Standings, func(i, j int) bool {
		si, sj := t.Standings[i], t.Standings[j]
		if si.Points != sj.Points {
			return si.Points > sj.Points
		}
		if si.MeanPayoff != sj.MeanPayoff {
			return si.MeanPayoff > sj.MeanPayoff
		}
		return si.Name < sj.Name
	})
	return t, nil
}

// playMatch stages one match between two seats and returns each side's
// mean per-player fitness. The match is a single-environment tournament
// evaluation over a fixed roster: PerSide players per seat plus CSN
// selfish nodes, exactly the opponent-seat path the engine uses.
func playMatch(a, b Seat, cfg Config, seed uint64) (payoffA, payoffB float64, err error) {
	var normals []*game.Player
	id := network.NodeID(0)
	for i := 0; i < cfg.PerSide; i++ {
		normals = append(normals, game.NewNormal(id, a.Strategy))
		id++
	}
	for i := 0; i < cfg.PerSide; i++ {
		normals = append(normals, game.NewNormal(id, b.Strategy))
		id++
	}
	var csn []*game.Player
	for i := 0; i < cfg.CSN; i++ {
		csn = append(csn, game.NewSelfish(id))
		id++
	}
	registry := tournament.BuildRegistry(normals, csn)

	ecfg := &tournament.EvalConfig{
		TournamentSize: 2*cfg.PerSide + cfg.CSN,
		PlaysPerEnv:    1,
		Environments:   []tournament.Environment{{Name: "league", CSN: cfg.CSN}},
		Tournament: tournament.Config{
			Rounds: cfg.Rounds,
			Mode:   cfg.Mode,
			Game:   cfg.Game,
		},
	}
	gen := network.NewGenerator(cfg.Mode)
	var es tournament.EvalState
	if err := es.EvaluateWithAdversaries(normals, csn, nil, registry, ecfg, gen, rng.New(seed), nil); err != nil {
		return 0, 0, fmt.Errorf("league: match %s vs %s: %w", a.Name, b.Name, err)
	}

	for i, p := range normals {
		if i < cfg.PerSide {
			payoffA += p.Acct.Fitness()
		} else {
			payoffB += p.Acct.Fitness()
		}
	}
	payoffA /= float64(cfg.PerSide)
	payoffB /= float64(cfg.PerSide)
	return payoffA, payoffB, nil
}
