package scenario

import (
	"bytes"
	"strings"
	"testing"

	"adhocga/internal/island"
)

func islandSpec() Spec {
	return Spec{
		Name:         "isl",
		Environments: []EnvSpec{{CSN: 10}},
		Population:   200,
		Generations:  4,
		Rounds:       20,
		Repetitions:  2,
		Islands:      &IslandSpec{Count: 4, Topology: "full", Interval: 5, Migrants: 2, Replace: "random"},
	}
}

func TestIslandsJSONRoundTrip(t *testing.T) {
	in := islandSpec()
	var buf bytes.Buffer
	if err := save(&buf, []Spec{in}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"islands"`) {
		t.Fatalf("saved spec has no islands block:\n%s", buf.String())
	}
	out, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := out[0].Islands
	if got == nil || *got != *in.Islands {
		t.Errorf("islands block round-tripped to %+v, want %+v", got, in.Islands)
	}
}

func TestIslandsBlockOmittedWhenNil(t *testing.T) {
	s := islandSpec()
	s.Islands = nil
	var buf bytes.Buffer
	if err := save(&buf, []Spec{s}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "islands") {
		t.Errorf("serial spec serialized an islands block:\n%s", buf.String())
	}
}

func TestIslandsValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"zero-count", func(s *Spec) { s.Islands.Count = 0 }},
		{"bad-topology", func(s *Spec) { s.Islands.Topology = "mesh" }},
		{"bad-replace", func(s *Spec) { s.Islands.Replace = "best" }},
		{"negative-interval", func(s *Spec) { s.Islands.Interval = -1 }},
		{"negative-migrants", func(s *Spec) { s.Islands.Migrants = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := islandSpec()
			tc.mut(&s)
			if err := s.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", s.Islands)
			}
		})
	}
	good := islandSpec()
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected a good islands spec: %v", err)
	}
}

func TestIslandConfigBuilds(t *testing.T) {
	cfg, err := islandSpec().IslandConfig(7)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Count != 4 || cfg.Topology != island.FullyConnected ||
		cfg.Interval != 5 || cfg.Migrants != 2 || cfg.Replace != island.ReplaceRandom {
		t.Errorf("IslandConfig = %+v", cfg)
	}
	if cfg.Core.PopulationSize != 200 || cfg.Core.Seed != 7 {
		t.Errorf("core config = pop %d seed %d", cfg.Core.PopulationSize, cfg.Core.Seed)
	}
}

func TestIslandConfigDefaultsToOneIsland(t *testing.T) {
	s := islandSpec()
	s.Islands = nil
	cfg, err := s.IslandConfig(7)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Count != 1 {
		t.Errorf("count = %d, want 1", cfg.Count)
	}
}

// TestIslandConfigRejectsInfeasibleSharding pins the fail-fast contract:
// a division that starves island tournaments must fail at build time, not
// replicate-run time.
func TestIslandConfigRejectsInfeasibleSharding(t *testing.T) {
	s := islandSpec()
	s.Population = 100 // 25 per island < T=50 normals needed for CSN=10? 40 > 25 → infeasible
	if _, err := s.IslandConfig(7); err == nil {
		t.Error("IslandConfig accepted an infeasible island share")
	}
	s = islandSpec()
	s.Islands.Count = 3 // 200 % 3 != 0
	if _, err := s.IslandConfig(7); err == nil {
		t.Error("IslandConfig accepted an indivisible population")
	}
}
