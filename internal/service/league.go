package service

import (
	"fmt"
	"net/http"

	"adhocga"
	"adhocga/internal/league"
	"adhocga/internal/network"
)

// The league surface: the champion archive's read endpoints and the
// league-job submit endpoint. Champions get into the archive when jobs
// run with checkpoints enabled (the scenario "checkpoints" field); a
// league job re-seats selected champions — optionally with the scripted
// baselines — in a round-robin of tournament matches and reports the
// table. League jobs ride the same durable-record machinery as scenario
// jobs: one accept path, queued before the 202, finalized at the terminal
// transition, recovered by Kind.

// handleChampions lists the hall of fame in archival order, optionally
// filtered by classification category (?category=reciprocal) or source
// job (?job=job-1).
func (s *Server) handleChampions(w http.ResponseWriter, r *http.Request) {
	if s.opts.Champions == nil {
		httpError(w, http.StatusServiceUnavailable, "no champion archive configured (run adhocd with -champions)")
		return
	}
	q := r.URL.Query()
	category, job := q.Get("category"), q.Get("job")
	champs := s.opts.Champions.List()
	out := make([]league.Champion, 0, len(champs))
	for _, c := range champs {
		if category != "" && c.Category != category {
			continue
		}
		if job != "" && c.Job != job {
			continue
		}
		out = append(out, c)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"champions": out,
		"count":     len(out),
		"archive":   s.opts.Champions.Backend(),
	})
}

// handleChampion serves one champion by ID. Champion IDs contain slashes
// (job/scenario/rep/generation), so the route binds the path remainder.
func (s *Server) handleChampion(w http.ResponseWriter, r *http.Request) {
	if s.opts.Champions == nil {
		httpError(w, http.StatusServiceUnavailable, "no champion archive configured (run adhocd with -champions)")
		return
	}
	id := r.PathValue("id")
	c, ok := s.opts.Champions.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no champion %q", id)
		return
	}
	writeJSON(w, http.StatusOK, c)
}

// handleLeague submits a league job over selected champions. The body is
// a LeagueJobSpec JSON document ({"champions": [...], "baselines": true,
// "seed": 7, ...}); an empty champions list seats the whole archive. The
// job runs on the session like any other: 202 with the handle, results
// on GET /v1/jobs/{id} once done.
func (s *Server) handleLeague(w http.ResponseWriter, r *http.Request) {
	if s.opts.Champions == nil {
		httpError(w, http.StatusServiceUnavailable, "no champion archive configured (run adhocd with -champions)")
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	spec, err := s.resolveLeague(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.accept(w, r, spec, spec)
}

// resolveLeague decodes a league body and fails what can never run up
// front, with the job's own rules, so the client gets a 400 and the store
// no record instead of a failed job: the champions are seated through
// Archive.Select, as the job and `adhocga league` seat them, so an unknown
// ID is rejected; fewer than two seats can never play a league; and the
// knobs must pass the league's checks once its defaults apply.
func (s *Server) resolveLeague(body []byte) (adhocga.LeagueJobSpec, error) {
	var spec adhocga.LeagueJobSpec
	if len(body) > 0 {
		if err := decodeStrict(body, &spec); err != nil {
			return spec, fmt.Errorf("body: %w", err)
		}
	}
	champs, err := s.opts.Champions.Select(spec.ChampionIDs)
	if err != nil {
		return spec, err
	}
	seats := len(champs)
	if spec.IncludeBaselines {
		seats += len(league.BaselineSeats())
	}
	if seats < 2 {
		return spec, fmt.Errorf("league: only %d seats (archive has %d champions; add baselines or harvest champions)",
			seats, s.opts.Champions.Len())
	}
	mode, err := network.ModeByName(spec.PathMode)
	if err != nil {
		return spec, err
	}
	return spec, league.Config{
		PerSide:        spec.PerSide,
		CSN:            spec.CSN,
		MatchesPerPair: spec.MatchesPerPair,
		Rounds:         spec.Rounds,
		Mode:           mode,
		Parallelism:    spec.Parallelism,
	}.ValidateKnobs()
}

// leagueOf extracts a finished league job's table (nil for every other
// job kind or while running).
func leagueOf(j *adhocga.Job) *adhocga.LeagueTable {
	t, _ := j.Result().(*adhocga.LeagueTable)
	return t
}
