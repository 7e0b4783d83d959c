package adhocga

import (
	"context"
	"fmt"

	"adhocga/internal/league"
	"adhocga/internal/network"
)

// LeagueJobSpec runs a coevolution league over the session's champion
// archive: the selected champions (plus, optionally, the scripted
// baseline seats) meet in a round-robin of tournament matches. Result
// type: *LeagueTable. Events: the terminal KindDone only — a league is a
// bounded batch of matches, reported whole.
//
// The session must have a champion archive attached
// (WithChampionArchive); champions get into it by running jobs with
// checkpoints enabled (scenario "checkpoints" field, or engine
// CheckpointInterval).
type LeagueJobSpec struct {
	// ChampionIDs selects archived champions by ID; empty seats the whole
	// archive sorted by ID (a stable order independent of archival order).
	ChampionIDs []string `json:"champions,omitempty"`
	// IncludeBaselines adds the scripted seats: all-forward,
	// never-forward, and the paper's reciprocal winner.
	IncludeBaselines bool `json:"baselines,omitempty"`
	// Engine knobs, zero meaning the league defaults (10 per side, 2
	// matches per pair, 100 rounds, SP paths, paper game rules).
	PerSide        int    `json:"per_side,omitempty"`
	CSN            int    `json:"csn,omitempty"`
	MatchesPerPair int    `json:"matches_per_pair,omitempty"`
	Rounds         int    `json:"rounds,omitempty"`
	PathMode       string `json:"path_mode,omitempty"` // "SP" (default) or "LP"
	// Seed is the league's root seed; match seeds are drawn from it.
	Seed        uint64 `json:"seed,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`
}

// Kind returns "league".
func (LeagueJobSpec) Kind() string { return "league" }

// Validate reports whether sp can run over arch: every named champion is
// in the archive and decodes, at least two distinct seats result, the
// path mode is known, and the knobs pass the league's checks once its
// defaults apply. It applies the job's own seating rule, so the daemon
// and the CLI reject what the job would fail, with the job's words.
func (sp LeagueJobSpec) Validate(arch *ChampionArchive) error {
	_, err := sp.config(arch)
	return err
}

// config seats sp over arch — the selected champions in order, then the
// baselines if asked — and builds the league configuration.
func (sp LeagueJobSpec) config(arch *league.Archive) (league.Config, error) {
	if arch == nil {
		return league.Config{}, fmt.Errorf("adhocga: league job needs a champion archive — build the session with WithChampionArchive")
	}
	champs, err := arch.Select(sp.ChampionIDs)
	if err != nil {
		return league.Config{}, err
	}
	seats := make([]league.Seat, 0, len(champs)+3)
	for _, c := range champs {
		seat, err := league.ChampionSeat(c)
		if err != nil {
			return league.Config{}, err
		}
		seats = append(seats, seat)
	}
	if sp.IncludeBaselines {
		seats = append(seats, league.BaselineSeats()...)
	}
	if len(seats) < 2 {
		return league.Config{}, fmt.Errorf("league: only %d seats (archive has %d champions; add baselines or harvest champions)",
			len(seats), arch.Len())
	}
	mode, err := network.ModeByName(sp.PathMode)
	if err != nil {
		return league.Config{}, fmt.Errorf("league: %w", err)
	}
	cfg := league.Config{
		Seats:          seats,
		PerSide:        sp.PerSide,
		CSN:            sp.CSN,
		MatchesPerPair: sp.MatchesPerPair,
		Rounds:         sp.Rounds,
		Mode:           mode,
		Seed:           sp.Seed,
		Parallelism:    sp.Parallelism,
	}
	return cfg, cfg.Validate()
}

func (sp LeagueJobSpec) run(ctx context.Context, s *Session, _ func(Event)) (any, error) {
	cfg, err := sp.config(s.champions)
	if err != nil {
		return nil, err
	}
	// The league holds one pool slot and plays its matches on it plus
	// any slots free at the time.
	return runPooled(ctx, s, func() (any, error) {
		return league.RunContext(ctx, s.pool, cfg)
	})
}

// RunLeague runs a coevolution league on the session and waits for the
// table.
func (s *Session) RunLeague(ctx context.Context, spec LeagueJobSpec) (*LeagueTable, error) {
	res, err := s.submitAndWait(ctx, spec)
	out, _ := res.(*LeagueTable)
	return out, err
}
