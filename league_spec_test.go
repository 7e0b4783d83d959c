package adhocga

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// harvestSession runs a tiny checkpointed evolve job on a session wired
// to a fresh in-memory archive and returns both.
func harvestSession(t *testing.T) (*Session, *ChampionArchive) {
	t.Helper()
	arch := NewChampionArchive()
	s := NewSession(WithPoolSize(2), WithChampionArchive(arch))
	cfg := smallConfig(6, 11)
	cfg.CheckpointInterval = 2
	j, err := s.Submit(context.Background(), EvolveSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s, arch
}

// TestCheckpointEventsArchiveChampions pins the harvest pipeline: a
// checkpointed evolve job emits KindCheckpoint events, and the session
// archives each one as a champion whose genome matches the event.
func TestCheckpointEventsArchiveChampions(t *testing.T) {
	arch := NewChampionArchive()
	s := NewSession(WithPoolSize(2), WithChampionArchive(arch))
	defer s.Close()
	cfg := smallConfig(6, 11)
	cfg.CheckpointInterval = 2
	j, err := s.Submit(context.Background(), EvolveSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var checkpoints []*CheckpointEvent
	for _, e := range drain(t, j) {
		if e.Kind == KindCheckpoint {
			checkpoints = append(checkpoints, e.Checkpoint)
		}
	}
	// Generations 0..5 at interval 2: gens 0, 2, 4, plus the forced final
	// generation 5.
	if len(checkpoints) != 4 {
		t.Fatalf("%d checkpoint events, want 4", len(checkpoints))
	}
	if arch.Len() != len(checkpoints) {
		t.Fatalf("archive has %d champions, want %d", arch.Len(), len(checkpoints))
	}
	for _, cp := range checkpoints {
		id := j.ID() + "/evolve/r0/g" + strconv.Itoa(cp.Gen)
		c, ok := arch.Get(id)
		if !ok {
			t.Fatalf("no champion %q for checkpoint event (archive: %v)", id, championIDs(arch))
		}
		if c.Genome != cp.Genome || c.Fitness != cp.Fitness || c.Seed != cp.Seed {
			t.Fatalf("champion %q diverges from its event:\nchampion %+v\nevent    %+v", id, c, cp)
		}
		if c.Category == "" {
			t.Fatalf("champion %q has no classification metadata", id)
		}
	}
}

// TestRunLeagueOverHarvestedChampions runs the whole tentpole loop in
// process: evolve with checkpoints, seat the harvested champions plus the
// baselines, and check the table — twice, byte-identically.
func TestRunLeagueOverHarvestedChampions(t *testing.T) {
	s, arch := harvestSession(t)
	defer s.Close()
	if arch.Len() == 0 {
		t.Fatal("harvest archived no champions")
	}
	spec := LeagueJobSpec{
		IncludeBaselines: true,
		PerSide:          2,
		MatchesPerPair:   1,
		Rounds:           10,
		Seed:             7,
	}
	table, err := s.RunLeague(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Seats) != arch.Len()+3 {
		t.Fatalf("%d seats, want %d champions + 3 baselines", len(table.Seats), arch.Len())
	}
	if table.Standings[0].Name == "" {
		t.Fatal("empty winner")
	}
	var champs, baselines int
	for _, st := range table.Standings {
		switch st.Kind {
		case "champion":
			champs++
		case "baseline":
			baselines++
		}
	}
	if champs != arch.Len() || baselines != 3 {
		t.Fatalf("standings have %d champions / %d baselines, want %d / 3", champs, baselines, arch.Len())
	}

	again, err := s.RunLeague(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(table)
	b2, _ := json.Marshal(again)
	if string(b1) != string(b2) {
		t.Fatalf("league not deterministic across runs:\n%s\n%s", b1, b2)
	}
}

func TestRunLeagueChampionSelection(t *testing.T) {
	s, arch := harvestSession(t)
	defer s.Close()
	all := arch.List()
	if len(all) < 2 {
		t.Fatalf("need ≥2 champions, have %d", len(all))
	}
	table, err := s.RunLeague(context.Background(), LeagueJobSpec{
		ChampionIDs:    []string{all[0].ID, all[1].ID},
		PerSide:        2,
		MatchesPerPair: 1,
		Rounds:         10,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Seats) != 2 {
		t.Fatalf("%d seats, want the 2 selected champions", len(table.Seats))
	}
	for _, name := range table.Seats {
		if !strings.HasPrefix(name, "champion/") {
			t.Fatalf("unexpected seat %q", name)
		}
	}

	if _, err := s.RunLeague(context.Background(), LeagueJobSpec{
		ChampionIDs: []string{"no/such/champion"}, IncludeBaselines: true,
	}); err == nil {
		t.Fatal("league accepted unknown champion ID")
	}
	if _, err := s.RunLeague(context.Background(), LeagueJobSpec{
		IncludeBaselines: true, PathMode: "XP",
	}); err == nil {
		t.Fatal("league accepted unknown path mode")
	}
}

func TestRunLeagueWithoutArchive(t *testing.T) {
	s := NewSession()
	defer s.Close()
	if s.Champions() != nil {
		t.Fatal("session without WithChampionArchive reports an archive")
	}
	if _, err := s.RunLeague(context.Background(), LeagueJobSpec{IncludeBaselines: true}); err == nil {
		t.Fatal("league ran without a champion archive")
	}
	if err := (LeagueJobSpec{IncludeBaselines: true}).Validate(nil); err == nil {
		t.Fatal("Validate passed a league without a champion archive")
	}
}

// TestLeagueValidateMatchesJob: Validate rejects exactly what the league
// job fails on, with the job's words, and passes what the job runs.
func TestLeagueValidateMatchesJob(t *testing.T) {
	arch := NewChampionArchive()
	champ := Champion{ID: "job-1/x/r0/g1", Genome: "0101011011111"}
	if err := champ.Fill(); err != nil {
		t.Fatal(err)
	}
	if err := arch.Put(champ); err != nil {
		t.Fatal(err)
	}
	s := NewSession(WithPoolSize(1), WithChampionArchive(arch))
	defer s.Close()
	for _, sp := range []LeagueJobSpec{
		{ChampionIDs: []string{"nope/x/r0/g1"}, IncludeBaselines: true},
		{ChampionIDs: []string{champ.ID}},
		{ChampionIDs: []string{champ.ID, champ.ID}, IncludeBaselines: true},
		{IncludeBaselines: true, PathMode: "XP"},
		{IncludeBaselines: true, PerSide: -1},
		{IncludeBaselines: true, Parallelism: -1},
		{ChampionIDs: []string{champ.ID}, IncludeBaselines: true, PerSide: 1, MatchesPerPair: 1, Rounds: 2},
	} {
		verr := sp.Validate(arch)
		_, jerr := s.RunLeague(context.Background(), sp)
		if fmt.Sprint(verr) != fmt.Sprint(jerr) {
			t.Errorf("%+v: Validate says %v, the job %v", sp, verr, jerr)
		}
	}
}

// TestScenarioCheckpointsFlowThroughBatch runs a scenario batch with the
// declarative "checkpoints" field and checks champions arrive with
// scenario provenance in their IDs.
func TestScenarioCheckpointsFlowThroughBatch(t *testing.T) {
	arch := NewChampionArchive()
	s := NewSession(WithPoolSize(1), WithChampionArchive(arch))
	defer s.Close()
	fam, err := ScenarioFamilyByName("table4")
	if err != nil {
		t.Fatal(err)
	}
	spec := fam.Specs()[0]
	spec.Checkpoints = 2
	j, err := s.Submit(context.Background(), ScenariosSpec{
		Runs:     []ScenarioRun{{Spec: spec, Seed: 5}},
		Defaults: Scale{Name: "test", Generations: 4, Rounds: 10, Repetitions: 2},
		Opts:     RunOptions{Parallelism: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 2 replicates × checkpoints at gens 0, 2, 3.
	if arch.Len() != 6 {
		t.Fatalf("archive has %d champions, want 6: %v", arch.Len(), championIDs(arch))
	}
	for _, c := range arch.List() {
		if c.Job != j.ID() || c.Scenario != spec.Name {
			t.Fatalf("champion %q has provenance job=%q scenario=%q, want %q/%q", c.ID, c.Job, c.Scenario, j.ID(), spec.Name)
		}
	}
}

func championIDs(a *ChampionArchive) []string {
	var out []string
	for _, c := range a.List() {
		out = append(out, c.ID)
	}
	return out
}
