package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"adhocga"
	"adhocga/internal/league"
)

// rejectLeavesNoRecord drives a body the resolver rejected through the
// real handler: it must answer 400 and leave the store as it was.
func rejectLeavesNoRecord(t *testing.T, s *Server, path string, body []byte) {
	t.Helper()
	before, err := s.store.List()
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("rejected body answered %d: %s", rec.Code, rec.Body)
	}
	if after, _ := s.store.List(); len(after) != len(before) {
		t.Fatalf("rejected body changed the store (%d → %d records)", len(before), len(after))
	}
}

// FuzzSubmitBody drives the POST /v1/jobs body through the same steps the
// handler takes before a job exists: parseSubmit, then resolveSubmit,
// which parses the scenarios and builds the job spec. No body may panic
// any of them. Every accepted body must have a worker count the batch
// accepts and survive the trip through its durable record — newRecord,
// then specFromRecord, as recovery and verify read it — as a deeply equal
// ScenariosSpec; every rejected one must be a 400 from the handler that
// leaves the store unchanged. CI runs a short -fuzztime smoke; locally
// run e.g.
//
//	go test -fuzz FuzzSubmitBody -fuzztime 30s -run '^$' ./internal/service/
func FuzzSubmitBody(f *testing.F) {
	for _, body := range []string{
		fmt.Sprintf(`{"scenarios": %s, "scale": "smoke", "parallelism": 1}`, smokeSpec),
		fmt.Sprintf(`{"scenarios": %s, "scale": "smoke", "parallelism": 2}`, smokeSpec),
		fmt.Sprintf(`{"scenarios": %s, "parallelism": 1, "scale": "smoke"}`, longSpec),
		fmt.Sprintf(`{"scenarios": %s, "scale": "smoke", "parallelism": 1}`, checkpointSpec),
		fmt.Sprintf(`{"scenarios": [%s, %s], "seed": 9}`, smokeSpec, checkpointSpec),
		fmt.Sprintf(`{"scenarios": %s, "scale": "galactic"}`, smokeSpec),
		fmt.Sprintf(`{"scenarios": %s, "parallelsim": 1}`, smokeSpec),
		fmt.Sprintf(`{"scenarios": %s, "parallelism": -3}`, smokeSpec),
		smokeSpec,
		`[{"name":"a","environments":[{"csn":0}]}]`,
		`{"name":"x","environments":[{"csn":-2}]}`,
		`{"environments":[{"csn":0}]}`,
		`{"scenarios": []}`,
		`{"scenarios": null}`,
		`{"scenarios": [{"name":"a","environments":[]}], "seed": 9}`,
		`{`,
		``,
	} {
		f.Add([]byte(body))
	}
	session := adhocga.NewSession()
	f.Cleanup(session.Close)
	s := New(session, Options{})
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := parseSubmit(body)
		if err == nil {
			var sp resolvedSubmit
			var spec adhocga.ScenariosSpec
			if sp, spec, err = s.resolveSubmit(req); err == nil {
				if sp.Parallelism < 0 {
					t.Fatalf("accepted parallelism %d", sp.Parallelism)
				}
				rec, err := newRecord("job-1", sp)
				if err != nil {
					t.Fatalf("accepted body has no record: %v", err)
				}
				back, err := specFromRecord(rec)
				if err != nil {
					t.Fatalf("record of an accepted body does not re-run: %v\nspec %s", err, rec.Spec)
				}
				if !reflect.DeepEqual(back, spec) {
					t.Fatalf("record round trip changed the job\nbefore %+v\nafter  %+v", spec, back)
				}
				return
			}
		}
		if len(body) <= maxBodyBytes {
			rejectLeavesNoRecord(t, s, "/v1/jobs", body)
		}
	})
}

// FuzzLeagueBody is FuzzSubmitBody's sibling for POST /v1/league, whose
// body is a LeagueJobSpec rather than a scenario batch. No body may panic
// resolveLeague. An accepted body must pass the job's own builder
// (LeagueJobSpec.Validate, which seats it and checks every knob), and its
// record must re-run as the same spec; a rejected one must be a 400 from the handler
// that leaves the store unchanged.
//
//	go test -fuzz FuzzLeagueBody -fuzztime 30s -run '^$' ./internal/service/
func FuzzLeagueBody(f *testing.F) {
	for _, body := range []string{
		`{"baselines": true, "per_side": 2, "matches_per_pair": 1, "rounds": 10, "seed": 7}`,
		`{"baselines": true, "path_mode": "LP", "csn": 3, "parallelism": 2}`,
		`{"champions": ["job-1/x/r0/g1"], "baselines": true}`,
		`{"champions":["nope/x/r0/g1"],"baselines":true}`,
		`{"baselines": true, "matches_per_pair": -2}`,
		`{"baselines": true, "path_mode": "XX"}`,
		`{"baselines": true, "parallelism": -1}`,
		`{"baselines": true, "per_sid": 3}`,
		`{"seed": 1}`,
		`{}`,
		`{`,
		``,
	} {
		f.Add([]byte(body))
	}
	arch := league.NewMemArchive()
	session := adhocga.NewSession(adhocga.WithChampionArchive(arch))
	f.Cleanup(session.Close)
	s := New(session, Options{})
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := s.resolveLeague(body)
		if err != nil {
			if len(body) <= maxBodyBytes {
				rejectLeavesNoRecord(t, s, "/v1/league", body)
			}
			return
		}
		if err := spec.Validate(arch); err != nil {
			t.Fatalf("accepted league fails the job's validation: %v", err)
		}
		rec, err := newRecord("job-1", spec)
		if err != nil {
			t.Fatalf("accepted body has no record: %v", err)
		}
		back, err := specFromRecord(rec)
		if err != nil {
			t.Fatalf("record of an accepted body does not re-run: %v\nspec %s", err, rec.Spec)
		}
		if !reflect.DeepEqual(back, adhocga.JobSpec(spec)) {
			t.Fatalf("record round trip changed the league\nbefore %+v\nafter  %+v", spec, back)
		}
	})
}
