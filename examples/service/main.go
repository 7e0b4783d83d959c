// Service: the Session/Job API end to end, twice over — first embedded
// (Submit a job, stream its unified events, cancel a second job
// mid-flight), then over HTTP the way adhocd serves it (submit a
// scenario-spec JSON with POST, follow the NDJSON event stream, read the
// final status).
//
// The same Session backs both halves: the HTTP jobs and the embedded jobs
// share one execution pool, so nothing oversubscribes no matter how many
// jobs are in flight.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"adhocga"
	"adhocga/internal/service"
)

func main() {
	session := adhocga.NewSession(
		adhocga.WithPoolSize(4),
		adhocga.WithMaxConcurrentJobs(2),
		adhocga.WithDefaultScale(adhocga.ScaleSmoke),
	)
	defer session.Close()

	// --- Embedded: submit, stream, wait. ---
	cfg := adhocga.DefaultEvolutionConfig(adhocga.PaperEnvironments()[:1], adhocga.ShorterPaths(), 1)
	cfg.PopulationSize = 30
	cfg.Eval.TournamentSize = 15
	cfg.Eval.Tournament.Rounds = 50
	cfg.Generations = 10

	job, err := session.Submit(context.Background(), adhocga.EvolveSpec{Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s (%s)\n", job.ID(), job.Kind())
	for e := range job.Events() {
		switch e.Kind {
		case adhocga.KindGeneration:
			if e.Generation.Gen%3 == 0 {
				fmt.Printf("  gen %2d: cooperation %5.1f%%  best fitness %.3f\n",
					e.Generation.Gen, e.Generation.Coop*100, e.Generation.BestFit)
			}
		case adhocga.KindDone:
			fmt.Printf("  terminal state: %s\n", e.Done.State)
		}
	}
	res := job.Result().(*adhocga.EvolutionResult)
	fmt.Printf("final cooperation: %.1f%%\n\n", res.CoopSeries[len(res.CoopSeries)-1]*100)

	// --- Cancellation: a job stops at its next generation barrier. ---
	long := cfg
	long.Generations = 1_000_000
	victim, err := session.Submit(context.Background(), adhocga.EvolveSpec{Config: long})
	if err != nil {
		log.Fatal(err)
	}
	for e := range victim.EventsContext(context.Background()) {
		if e.Kind == adhocga.KindGeneration && e.Generation.Gen == 2 {
			victim.Cancel() // cooperative: next barrier, determinism intact
			break
		}
	}
	victim.Wait(context.Background())
	partial := victim.Result().(*adhocga.EvolutionResult)
	fmt.Printf("cancelled %s after %d of %d generations (state %s)\n\n",
		victim.ID(), len(partial.CoopSeries), long.Generations, victim.State())

	// --- Over HTTP: what `adhocd` serves, here on an httptest listener.
	// With a real daemon this is:  curl -s localhost:8547/v1/jobs -d @spec.json
	srv := httptest.NewServer(service.New(session, service.Options{}))
	defer srv.Close()

	spec := `{"scenarios": {"name": "http-demo", "environments": [{"csn": 10}],
	          "population": 30, "tournament_size": 15,
	          "generations": 8, "rounds": 50, "repetitions": 2, "seed": 7},
	          "parallelism": 1}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		log.Fatal(err)
	}
	var submitted service.JobInfo
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		log.Fatalf("POST /v1/jobs → %s (%v)", resp.Status, err)
	}
	fmt.Println("POST /v1/jobs →", resp.Status, submitted.ID)

	// Stream the job's NDJSON events (curl -N …/v1/jobs/<id>/events).
	stream, err := http.Get(srv.URL + submitted.EventsURL)
	if err != nil {
		log.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		log.Fatalf("GET %s → %s", submitted.EventsURL, stream.Status)
	}
	lines := 0
	scanner := bufio.NewScanner(stream.Body)
	for scanner.Scan() {
		lines++
		if lines <= 3 {
			fmt.Println("  ", scanner.Text())
		}
	}
	fmt.Printf("streamed %d NDJSON events\n", lines)

	status, err := http.Get(srv.URL + submitted.StatusURL)
	if err != nil {
		log.Fatal(err)
	}
	defer status.Body.Close()
	if status.StatusCode != http.StatusOK {
		log.Fatalf("GET %s → %s", submitted.StatusURL, status.Status)
	}
	sc := bufio.NewScanner(status.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, `"state"`) || strings.Contains(line, `"final_coop_mean"`) {
			fmt.Println("  ", strings.TrimSpace(line))
		}
	}
}
