package service

import (
	"fmt"
	"reflect"
	"testing"

	"adhocga"
)

// FuzzSubmitBody drives the POST /v1/jobs body through the same steps the
// handler takes before a job exists: parseSubmit, then resolveSubmit,
// which parses the scenarios and builds the job spec. No body may panic
// any of them, and every accepted body must survive the trip through its
// durable record — newRecord, then specFromRecord, as recovery and
// verify read it — as a deeply equal ScenariosSpec. CI runs a short
// -fuzztime smoke; locally run e.g.
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
		if err != nil {
			return
		}
		sp, spec, err := s.resolveSubmit(req)
		if err != nil {
			return
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
	})
}
