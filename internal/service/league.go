package service

import (
	"fmt"
	"net/http"

	"adhocga"
	"adhocga/internal/league"
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
	archive := s.session.Champions()
	if archive == nil {
		httpError(w, http.StatusServiceUnavailable, "no champion archive configured (run adhocd with -champions)")
		return
	}
	q := r.URL.Query()
	category, job := q.Get("category"), q.Get("job")
	champs := archive.List()
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
		"archive":   archive.Backend(),
	})
}

// handleChampion serves one champion by ID. Champion IDs contain slashes
// (job/scenario/rep/generation), so the route binds the path remainder.
func (s *Server) handleChampion(w http.ResponseWriter, r *http.Request) {
	archive := s.session.Champions()
	if archive == nil {
		httpError(w, http.StatusServiceUnavailable, "no champion archive configured (run adhocd with -champions)")
		return
	}
	id := r.PathValue("id")
	c, ok := archive.Get(id)
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
	if s.session.Champions() == nil {
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
// front, with the job's own seating rule (LeagueJobSpec.Validate), so the
// client gets a 400 and the store no record instead of a failed job.
func (s *Server) resolveLeague(body []byte) (adhocga.LeagueJobSpec, error) {
	var spec adhocga.LeagueJobSpec
	if len(body) > 0 {
		if err := decodeStrict(body, &spec); err != nil {
			return spec, fmt.Errorf("body: %w", err)
		}
	}
	return spec, spec.Validate(s.session.Champions())
}

// leagueOf extracts a finished league job's table (nil for every other
// job kind or while running).
func leagueOf(j *adhocga.Job) *adhocga.LeagueTable {
	t, _ := j.Result().(*adhocga.LeagueTable)
	return t
}
