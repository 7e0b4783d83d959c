package league

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"adhocga/internal/rng"
	"adhocga/internal/runner"
	"adhocga/internal/strategy"
)

var update = flag.Bool("update", false, "rewrite golden fixtures from the current output")

// goldenConfig is the fixed league the determinism and golden tests pin:
// the three scripted baselines plus two archived champions, small enough
// to play in milliseconds but large enough to exercise every aggregation
// path (wins, losses, head-to-head, CSN pressure).
func goldenConfig(t *testing.T) Config {
	t.Helper()
	seats := BaselineSeats()
	for _, c := range []Champion{
		testChampion(t, "job-1/case 1/r0/g10", "0101011011111"),
		testChampion(t, "job-1/case 1/r0/g20", "1110111011101"),
	} {
		seat, err := ChampionSeat(c)
		if err != nil {
			t.Fatal(err)
		}
		seats = append(seats, seat)
	}
	return Config{
		Seats:          seats,
		PerSide:        3,
		CSN:            2,
		MatchesPerPair: 2,
		Rounds:         20,
		Seed:           42,
	}
}

func tableJSON(t *testing.T, pool *runner.Pool, cfg Config) []byte {
	t.Helper()
	table, err := RunContext(context.Background(), pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLeagueGolden byte-compares the fixed-seed league table against the
// checked-in fixture. Any drift — in match seeding, the evaluate path,
// aggregation, sort order, or JSON field layout — fails here first.
// Refresh after an intentional change with
//
//	go test -run TestLeagueGolden -update ./internal/league/
func TestLeagueGolden(t *testing.T) {
	got := tableJSON(t, runner.NewPool(0), goldenConfig(t))
	golden := filepath.Join("testdata", "league_table.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("league table drifted from golden fixture:\ngot  %s\nwant %s", got, want)
	}
}

// TestLeagueDeterministicAcrossParallelism is the contract the package
// doc promises: the marshaled table is byte-identical at GOMAXPROCS
// 1, 2, and 8 on a pool of as many slots, crossed with explicit
// Parallelism settings.
func TestLeagueDeterministicAcrossParallelism(t *testing.T) {
	cfg := goldenConfig(t)
	want := tableJSON(t, runner.NewPool(1), cfg)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, par := range []int{0, 1, 2, 8} {
			cfg.Parallelism = par
			if got := tableJSON(t, runner.NewPool(procs), cfg); string(got) != string(want) {
				t.Fatalf("GOMAXPROCS=%d Parallelism=%d table differs:\ngot  %s\nwant %s", procs, par, got, want)
			}
		}
	}
}

// TestLeagueDeterministicAcrossRestart archives the golden champions in a
// file-backed archive, plays the league, reopens the archive from disk,
// and plays it again: the WAL round trip must not perturb a single byte.
func TestLeagueDeterministicAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	champs := []Champion{
		testChampion(t, "job-1/case 1/r0/g10", "0101011011111"),
		testChampion(t, "job-1/case 1/r0/g20", "1110111011101"),
	}

	play := func(a *Archive) []byte {
		t.Helper()
		sel, err := a.Select(nil)
		if err != nil {
			t.Fatal(err)
		}
		seats := BaselineSeats()
		for _, c := range sel {
			seat, err := ChampionSeat(c)
			if err != nil {
				t.Fatal(err)
			}
			seats = append(seats, seat)
		}
		return tableJSON(t, runner.NewPool(0), Config{Seats: seats, PerSide: 3, CSN: 2, MatchesPerPair: 2, Rounds: 20, Seed: 42})
	}

	a, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range champs {
		if err := a.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	before := play(a)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	after := play(b)
	if string(before) != string(after) {
		t.Fatalf("league table changed across archive restart:\nbefore %s\nafter  %s", before, after)
	}
}

func TestLeagueTableShape(t *testing.T) {
	cfg := goldenConfig(t)
	table, err := RunContext(context.Background(), runner.NewPool(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(cfg.Seats)
	wantMatches := n * (n - 1) / 2 * cfg.MatchesPerPair
	if table.Matches != wantMatches {
		t.Fatalf("Matches = %d, want %d", table.Matches, wantMatches)
	}
	if len(table.Seats) != n || len(table.Standings) != n || len(table.HeadToHead) != n {
		t.Fatalf("table dimensions %d/%d/%d, want %d", len(table.Seats), len(table.Standings), len(table.HeadToHead), n)
	}
	if table.Seed != cfg.Seed {
		t.Fatalf("Seed = %d, want %d", table.Seed, cfg.Seed)
	}
	var points, h2h float64
	for i, s := range table.Standings {
		if s.Played != (n-1)*cfg.MatchesPerPair {
			t.Fatalf("%s played %d, want %d", s.Name, s.Played, (n-1)*cfg.MatchesPerPair)
		}
		if s.Wins+s.Draws+s.Losses != s.Played {
			t.Fatalf("%s W+D+L = %d, played %d", s.Name, s.Wins+s.Draws+s.Losses, s.Played)
		}
		if want := float64(s.Wins) + float64(s.Draws)/2; s.Points != want {
			t.Fatalf("%s points %v, want %v", s.Name, s.Points, want)
		}
		if i > 0 && s.Points > table.Standings[i-1].Points {
			t.Fatalf("standings not sorted: %v after %v", s.Points, table.Standings[i-1].Points)
		}
		if s.Genome == "" {
			t.Fatalf("%s has no genome in the table", s.Name)
		}
		points += s.Points
		for j := range table.HeadToHead[i] {
			h2h += table.HeadToHead[i][j]
		}
	}
	// Every match hands out exactly one point, split on draws; the
	// head-to-head matrix is the same points re-indexed by opponent.
	if points != float64(wantMatches) || h2h != float64(wantMatches) {
		t.Fatalf("points %v / head-to-head %v, want both %d", points, h2h, wantMatches)
	}
}

func TestConfigValidate(t *testing.T) {
	base := goldenConfig(t)
	// Zero knobs take their defaults, so seats alone make a valid league.
	if err := (Config{Seats: base.Seats}).Validate(); err != nil {
		t.Fatalf("seats with default knobs: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"one seat":             func(c *Config) { c.Seats = c.Seats[:1] },
		"empty seat name":      func(c *Config) { c.Seats[0].Name = "" },
		"duplicate seat":       func(c *Config) { c.Seats[1].Name = c.Seats[0].Name },
		"negative csn":         func(c *Config) { c.CSN = -1 },
		"negative per side":    func(c *Config) { c.PerSide = -1 },
		"negative matches":     func(c *Config) { c.MatchesPerPair = -2 },
		"negative rounds":      func(c *Config) { c.Rounds = -1 },
		"negative parallelism": func(c *Config) { c.Parallelism = -1 },
	} {
		cfg := base
		cfg.Seats = append([]Seat(nil), base.Seats...)
		mutate(&cfg)
		if _, err := RunContext(context.Background(), runner.NewPool(0), cfg); err == nil {
			t.Errorf("%s: RunContext accepted invalid config", name)
		}
	}
}

func TestDefaults(t *testing.T) {
	cfg := Config{Seats: BaselineSeats()}.withDefaults()
	if cfg.PerSide != 10 || cfg.MatchesPerPair != 2 || cfg.Rounds != 100 {
		t.Fatalf("defaults = PerSide %d, MatchesPerPair %d, Rounds %d", cfg.PerSide, cfg.MatchesPerPair, cfg.Rounds)
	}
	if cfg.Mode.Name == "" {
		t.Fatal("default path mode not applied")
	}
	if err := cfg.Game.Validate(); err != nil {
		t.Fatalf("default game config invalid: %v", err)
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, runner.NewPool(0), goldenConfig(t)); err == nil {
		t.Fatal("RunContext ignored cancelled context")
	}
}

// BenchmarkRoundRobin measures one full league in island-hof's shape: 16
// population seats of random strategies plus the three baselines, 10
// players per side, 2 matches per pair and 100 rounds per match, 342
// matches in all. It reports ns/match and is not gated.
func BenchmarkRoundRobin(b *testing.B) {
	r := rng.New(16)
	seats := BaselineSeats()
	for i := 0; i < 16; i++ {
		seats = append(seats, Seat{Name: fmt.Sprintf("population/p%d", i), Strategy: strategy.Random(r)})
	}
	cfg := Config{Seats: seats, PerSide: 10, MatchesPerPair: 2, Rounds: 100, Seed: 7}
	var matches int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := RunContext(context.Background(), runner.NewPool(0), cfg)
		if err != nil {
			b.Fatal(err)
		}
		matches += table.Matches
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(matches), "ns/match")
}
