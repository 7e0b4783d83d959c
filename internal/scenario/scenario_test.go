package scenario

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"adhocga/internal/ga"
)

func testScale() Scale {
	return Scale{Name: "test", Generations: 5, Rounds: 30, Repetitions: 2}
}

func float64p(v float64) *float64 { return &v }

func TestJSONRoundTripSingle(t *testing.T) {
	in := []Spec{{
		ID:   7,
		Name: "round-trip",
		Environments: []EnvSpec{
			{Name: "TE1", CSN: 0},
			{CSN: 25},
		},
		PathMode:       "LP",
		TournamentSize: 40,
		Rounds:         120,
		PlaysPerEnv:    3,
		Population:     80,
		Generations:    200,
		Repetitions:    12,
		Seed:           99,
		GA: &GASpec{
			SelectionTournament: 4,
			CrossoverProb:       float64p(0.7),
			MutationProb:        float64p(0.01),
			Elitism:             2,
		},
	}}
	var buf bytes.Buffer
	if err := save(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the spec:\nin:  %+v\nout: %+v", in[0], out[0])
	}
}

func TestJSONRoundTripList(t *testing.T) {
	in := CSNGrid()
	var buf bytes.Buffer
	if err := save(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Error("list round trip changed the specs")
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(strings.NewReader(`{"name":"x","environments":[{"csn":0}],"generation":5}`))
	if err == nil || !strings.Contains(err.Error(), "generation") {
		t.Errorf("typoed field accepted: %v", err)
	}
}

func TestLoadRejectsInvalidAndEmpty(t *testing.T) {
	if _, err := Load(strings.NewReader(`[]`)); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := Load(strings.NewReader(`{"name":"x","environments":[]}`)); err == nil {
		t.Error("spec without environments accepted")
	}
	if _, err := Load(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
	// Concatenated specs (instead of an array) must not silently drop
	// everything after the first value.
	concatenated := `{"name":"a","environments":[{"csn":0}]}
{"name":"b","environments":[{"csn":5}]}`
	if _, err := Load(strings.NewReader(concatenated)); err == nil {
		t.Error("trailing second spec accepted silently")
	}
}

func TestValidate(t *testing.T) {
	good := Spec{Name: "ok", Environments: []EnvSpec{{CSN: 10}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Environments: []EnvSpec{{CSN: 0}}},                                                      // no name
		{Name: "x"},                                                                              // no envs
		{Name: "x", Environments: []EnvSpec{{CSN: -1}}},                                          // negative CSN
		{Name: "x", Environments: []EnvSpec{{CSN: 0}}, PathMode: "XP"},                           // bad mode
		{Name: "x", Environments: []EnvSpec{{CSN: 0}}, Rounds: -5},                               // negative scale field
		{Name: "x", Environments: []EnvSpec{{CSN: 0}}, GA: &GASpec{MutationProb: float64p(1.5)}}, // bad prob
		{Name: "x", Environments: []EnvSpec{{CSN: 0}}, GA: &GASpec{Elitism: -1}},                 // negative GA field
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestModeResolution(t *testing.T) {
	for spec, want := range map[string]string{"": "SP", "SP": "SP", "sp": "SP", "LP": "LP", "lp": "LP"} {
		s := Spec{Name: "x", PathMode: spec}
		mode, err := s.Mode()
		if err != nil || mode.Name != want {
			t.Errorf("PathMode %q → %q, %v; want %q", spec, mode.Name, err, want)
		}
	}
}

func TestEnvsDefaultNames(t *testing.T) {
	s := Spec{Name: "x", Environments: []EnvSpec{{Name: "TE1", CSN: 0}, {CSN: 25}}}
	envs := s.Envs()
	if envs[0].Name != "TE1" || envs[1].Name != "CSN25" || envs[1].CSN != 25 {
		t.Errorf("envs = %+v", envs)
	}
}

func TestResolvePrecedence(t *testing.T) {
	s := Spec{Name: "x", Environments: []EnvSpec{{CSN: 0}}, Generations: 42}
	r := s.Resolve(testScale())
	if r.Generations != 42 {
		t.Errorf("spec-pinned generations overridden: %d", r.Generations)
	}
	if r.Rounds != 30 || r.Repetitions != 2 {
		t.Errorf("scale defaults not applied: %+v", r)
	}
}

func TestMasterSeed(t *testing.T) {
	s := Spec{Name: "x"}
	if s.MasterSeed(5) != 5 {
		t.Error("fallback seed not used")
	}
	s.Seed = 11
	if s.MasterSeed(5) != 11 {
		t.Error("pinned seed not used")
	}
}

func TestConfigDefaultsMatchPaper(t *testing.T) {
	s := Spec{Name: "x", Environments: paperEnvs()}
	cfg, err := s.Resolve(testScale()).Config(123)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PopulationSize != 100 || cfg.Eval.TournamentSize != 50 || cfg.Eval.PlaysPerEnv != 2 {
		t.Errorf("paper defaults not applied: %+v", cfg)
	}
	if cfg.Generations != 5 || cfg.Eval.Tournament.Rounds != 30 {
		t.Errorf("scale not applied: gens %d rounds %d", cfg.Generations, cfg.Eval.Tournament.Rounds)
	}
	if cfg.Seed != 123 {
		t.Errorf("seed %d", cfg.Seed)
	}
	if cfg.GA.CrossoverProb != 0.9 || cfg.GA.MutationProb != 0.001 || cfg.GA.Elitism != 0 {
		t.Errorf("paper GA not applied: %+v", cfg.GA)
	}
}

func TestConfigOverrides(t *testing.T) {
	s := Spec{
		Name:           "x",
		Environments:   []EnvSpec{{CSN: 5}},
		PathMode:       "LP",
		TournamentSize: 30,
		PlaysPerEnv:    1,
		Population:     60,
		GA: &GASpec{
			SelectionTournament: 5,
			CrossoverProb:       float64p(0), // explicit zero must stick
			MutationProb:        float64p(0.02),
			Elitism:             3,
		},
	}
	cfg, err := s.Resolve(testScale()).Config(1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PopulationSize != 60 || cfg.Eval.TournamentSize != 30 || cfg.Eval.PlaysPerEnv != 1 {
		t.Errorf("overrides not applied: %+v", cfg.Eval)
	}
	if cfg.Eval.Tournament.Mode.Name != "LP" {
		t.Errorf("mode %q", cfg.Eval.Tournament.Mode.Name)
	}
	if cfg.GA.CrossoverProb != 0 || cfg.GA.MutationProb != 0.02 || cfg.GA.Elitism != 3 {
		t.Errorf("GA overrides not applied: %+v", cfg.GA)
	}
	sel, ok := cfg.GA.Selector.(ga.TournamentSelector)
	if !ok || sel.Size != 5 {
		t.Errorf("selector = %#v", cfg.GA.Selector)
	}
}

func TestConfigRejectsImpossibleParameters(t *testing.T) {
	// Tournament of 80 normals from a population of 60 cannot be drawn.
	s := Spec{Name: "x", Environments: []EnvSpec{{CSN: 0}}, TournamentSize: 80, Population: 60}
	if _, err := s.Resolve(testScale()).Config(1); err == nil {
		t.Error("impossible spec accepted")
	}
}

func TestRegistryFamiliesAreValidAndBuildable(t *testing.T) {
	fams := Families()
	if len(fams) < 4 {
		t.Fatalf("%d families", len(fams))
	}
	sc := testScale()
	for _, f := range fams {
		specs := f.Specs()
		if len(specs) == 0 {
			t.Errorf("family %q is empty", f.Name)
		}
		seen := map[string]bool{}
		for _, s := range specs {
			if seen[s.Name] {
				t.Errorf("family %q has duplicate scenario %q", f.Name, s.Name)
			}
			seen[s.Name] = true
			if err := s.Validate(); err != nil {
				t.Errorf("family %q: %v", f.Name, err)
			}
			if _, err := s.Resolve(sc).Config(1); err != nil {
				t.Errorf("family %q scenario %q does not build: %v", f.Name, s.Name, err)
			}
			if _, err := s.Resolve(sc).IslandConfig(1); err != nil {
				t.Errorf("family %q scenario %q does not build an island config: %v", f.Name, s.Name, err)
			}
		}
	}
}

func TestRegistryLookups(t *testing.T) {
	f, err := FamilyByName("csn-grid")
	if err != nil || f.Name != "csn-grid" {
		t.Errorf("FamilyByName: %+v, %v", f, err)
	}
	if _, err := FamilyByName("nope"); err == nil {
		t.Error("unknown family accepted")
	}
	s, err := SpecByName("case 3 (TE1-4, SP)")
	if err != nil || s.ID != 3 {
		t.Errorf("SpecByName: %+v, %v", s, err)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestTable4MirrorsPaperCases(t *testing.T) {
	specs := Table4()
	if len(specs) != 4 {
		t.Fatalf("%d specs", len(specs))
	}
	if len(specs[0].Environments) != 1 || specs[0].Environments[0].CSN != 0 {
		t.Errorf("case 1 = %+v", specs[0])
	}
	if specs[1].Environments[0].CSN != 30 {
		t.Errorf("case 2 = %+v", specs[1])
	}
	if len(specs[2].Environments) != 4 || specs[2].PathMode != "SP" {
		t.Errorf("case 3 = %+v", specs[2])
	}
	if specs[3].PathMode != "LP" {
		t.Errorf("case 4 = %+v", specs[3])
	}
	for i, s := range specs {
		if s.ID != i+1 {
			t.Errorf("case %d has ID %d", i+1, s.ID)
		}
	}
}

// save writes specs as indented JSON in the shapes Load accepts: a bare
// object for a single spec, an array otherwise.
func save(w io.Writer, specs []Spec) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if len(specs) == 1 {
		return enc.Encode(specs[0])
	}
	return enc.Encode(specs)
}
