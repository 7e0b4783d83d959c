package scenario

import (
	"cmp"
	"fmt"
	"slices"

	"adhocga/internal/tournament"
)

// Family is a named generator of related scenarios: the paper's fixed
// evaluation plus the denser parameter sweeps the paper only samples.
type Family struct {
	Name        string
	Description string
	Specs       func() []Spec
}

// Families returns the registered scenario families, sorted by name.
func Families() []Family {
	fams := []Family{
		{
			Name:        "table4",
			Description: "the paper's four Table 4 evaluation cases",
			Specs:       Table4,
		},
		{
			Name:        "csn-grid",
			Description: "dense CSN × path-mode grid (0–45 selfish nodes, SP and LP)",
			Specs:       CSNGrid,
		},
		{
			Name:        "tournament-size",
			Description: "tournament-size sweep at a fixed 20% selfish share",
			Specs:       TournamentSizeSweep,
		},
		{
			Name:        "mixed-env",
			Description: "mixed-environment scenarios pairing benign and hostile conditions",
			Specs:       MixedEnvironments,
		},
		{
			Name:        "churn-sweep",
			Description: "node churn sweep: immigrant replacement rate 0–40% every 5 generations, with mobility rewiring",
			Specs:       ChurnSweep,
		},
		{
			Name:        "adversary-grid",
			Description: "Byzantine adversary grid: free-rider / liar / on-off cohorts of 2–10 nodes per 50-player tournament",
			Specs:       AdversaryGrid,
		},
		{
			Name:        "league",
			Description: "champion-harvest runs: the Table 4 cases with generation checkpoints archiving hall-of-fame champions for league play",
			Specs:       LeagueHarvest,
		},
		{
			Name:        "table4-islands",
			Description: "the four Table 4 cases on a 4-island ring (population 200, 2 migrants every 10 generations)",
			Specs:       Table4Islands,
		},
		{
			Name:        "island-topology-sweep",
			Description: "migration topology × replacement sweep on the TE2 environment (4 islands, population 200)",
			Specs:       IslandTopologySweep,
		},
	}
	slices.SortFunc(fams, func(a, b Family) int { return cmp.Compare(a.Name, b.Name) })
	return fams
}

// FamilyByName resolves a registered family.
func FamilyByName(name string) (Family, error) {
	for _, f := range Families() {
		if f.Name == name {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("scenario: unknown family %q (have %s)", name, familyNames())
}

// SpecByName searches every family for a scenario with the given name.
func SpecByName(name string) (Spec, error) {
	for _, f := range Families() {
		for _, s := range f.Specs() {
			if s.Name == name {
				return s, nil
			}
		}
	}
	return Spec{}, fmt.Errorf("scenario: no scenario named %q in any family (have %s)", name, familyNames())
}

func familyNames() string {
	names := ""
	for i, f := range Families() {
		if i > 0 {
			names += ", "
		}
		names += f.Name
	}
	return names
}

// paperEnvs are TE1–TE4 of Table 1 in spec form, derived from the
// tournament package's definition so there is one source of truth.
func paperEnvs() []EnvSpec {
	envs := tournament.PaperEnvironments()
	specs := make([]EnvSpec, len(envs))
	for i, e := range envs {
		specs[i] = EnvSpec{Name: e.Name, CSN: e.CSN}
	}
	return specs
}

// Table4 returns the paper's four evaluation cases as specs: the batch
// every Table 4 run (CLI, benchmarks, reproduction tests) submits.
func Table4() []Spec {
	envs := paperEnvs()
	return []Spec{
		{ID: 1, Name: "case 1 (TE1, SP)", Environments: envs[:1], PathMode: "SP"},
		{ID: 2, Name: "case 2 (TE4/30 CSN, SP)", Environments: envs[3:4], PathMode: "SP"},
		{ID: 3, Name: "case 3 (TE1-4, SP)", Environments: envs, PathMode: "SP"},
		{ID: 4, Name: "case 4 (TE1-4, LP)", Environments: envs, PathMode: "LP"},
	}
}

// CSNGrid returns the dense selfish-node grid: every CSN count from 0 to
// 45 in steps of 5, crossed with both path modes. The paper samples this
// surface at four points; the grid locates where cooperation collapses
// and how the LP penalty grows with hostility.
func CSNGrid() []Spec {
	var specs []Spec
	for _, mode := range []string{"SP", "LP"} {
		for csn := 0; csn <= 45; csn += 5 {
			specs = append(specs, Spec{
				Name:         fmt.Sprintf("grid CSN=%d (%s)", csn, mode),
				Environments: []EnvSpec{{CSN: csn}},
				PathMode:     mode,
			})
		}
	}
	return specs
}

// TournamentSizeSweep varies the paper's T at a fixed 20% selfish share
// (the TE2 ratio), asking whether cooperation enforcement survives in
// smaller neighborhoods where reputations are sampled less often.
func TournamentSizeSweep() []Spec {
	var specs []Spec
	for _, size := range []int{20, 30, 40, 50, 60, 80, 100} {
		specs = append(specs, Spec{
			Name:           fmt.Sprintf("tsize T=%d CSN=%d", size, size/5),
			Environments:   []EnvSpec{{CSN: size / 5}},
			PathMode:       "SP",
			TournamentSize: size,
		})
	}
	return specs
}

// LeagueHarvest is Table4 with generation checkpoints turned on: every 10
// generations (and at the final one) the best strategy of the moment is
// archived as a hall-of-fame champion, so a single family run seeds the
// coevolution league with snapshots spanning the whole evolutionary
// trajectory — early naive strategies, mid-run transients, and the final
// converged winners — across all four paper environments.
func LeagueHarvest() []Spec {
	specs := Table4()
	for i := range specs {
		specs[i].Name += " league-harvest"
		specs[i].Checkpoints = 10
	}
	return specs
}

// Table4Islands is the paper's four evaluation cases on the island-model
// engine: the population is doubled to 200 so each of the 4 islands keeps
// a 50-strategy subpopulation — the smallest share that still fills a
// T=50 tournament in the CSN-free environment — evolved concurrently with
// 2 elite migrants circulating over a ring every 10 generations.
func Table4Islands() []Spec {
	specs := Table4()
	for i := range specs {
		specs[i].Name += " 4-island ring"
		specs[i].Population = 200
		specs[i].Islands = &IslandSpec{Count: 4, Topology: "ring", Interval: 10, Migrants: 2}
	}
	return specs
}

// IslandTopologySweep crosses the three migration topologies with both
// replacement policies on the TE2 environment (10 CSN, the paper's 20%
// selfish share), asking how mixing speed and eviction pressure trade off
// against evolved cooperation. Population 200 over 4 islands keeps every
// island tournament-feasible at T=50.
func IslandTopologySweep() []Spec {
	var specs []Spec
	for _, topo := range []string{"ring", "full", "random-pairs"} {
		for _, replace := range []string{"worst", "random"} {
			specs = append(specs, Spec{
				Name:         fmt.Sprintf("islands 4x%s/%s CSN=10", topo, replace),
				Environments: []EnvSpec{{Name: "TE2", CSN: 10}},
				PathMode:     "SP",
				Population:   200,
				Islands:      &IslandSpec{Count: 4, Topology: topo, Interval: 5, Migrants: 2, Replace: replace},
			})
		}
	}
	return specs
}

// ChurnSweep varies the per-barrier immigrant replacement rate on the TE2
// environment (10 CSN) with a mild mobility rewiring walk, asking how much
// population turnover the evolved cooperation survives and how quickly it
// recovers after each perturbation barrier (the recovery-after-churn
// tables of internal/experiment). Rate 0 is the static control.
func ChurnSweep() []Spec {
	var specs []Spec
	for _, rate := range []float64{0, 0.05, 0.1, 0.2, 0.4} {
		spec := Spec{
			Name:         fmt.Sprintf("churn %d%% every 5 gens", int(rate*100)),
			Environments: []EnvSpec{{Name: "TE2", CSN: 10}},
			PathMode:     "SP",
		}
		if rate > 0 {
			spec.Dynamics = &DynamicsSpec{
				Interval:   5,
				ChurnRate:  rate,
				RewireProb: 0.5,
				RewireStep: 0.2,
			}
		}
		specs = append(specs, spec)
	}
	return specs
}

// AdversaryGrid crosses the three Byzantine behaviors with cohort sizes 2,
// 5 and 10 per 50-player tournament on the otherwise CSN-free TE1
// environment, so the measured damage is attributable to the adversaries
// alone. Gossip runs in every cell (liars need a channel to lie on, and
// keeping it on everywhere makes the cells comparable); a clean no-
// adversary control anchors the cooperation-vs-adversary-fraction table.
func AdversaryGrid() []Spec {
	specs := []Spec{{
		Name:         "adversaries none (control)",
		Environments: []EnvSpec{{Name: "TE1", CSN: 0}},
		PathMode:     "SP",
		Gossip:       &GossipSpec{Interval: 10},
	}}
	for _, kind := range []string{"free-riders", "liars", "on-off"} {
		for _, count := range []int{2, 5, 10} {
			d := &DynamicsSpec{}
			switch kind {
			case "free-riders":
				d.FreeRiders = count
			case "liars":
				d.Liars = count
			case "on-off":
				d.OnOff = count
			}
			specs = append(specs, Spec{
				Name:         fmt.Sprintf("adversaries %s x%d", kind, count),
				Environments: []EnvSpec{{Name: "TE1", CSN: 0}},
				PathMode:     "SP",
				Dynamics:     d,
				Gossip:       &GossipSpec{Interval: 10},
			})
		}
	}
	return specs
}

// MixedEnvironments pairs benign and hostile conditions inside one
// evaluation pass — coarser mixes than the paper's TE1–TE4 ladder,
// including an extreme benign/hostile split the paper never tests.
func MixedEnvironments() []Spec {
	envs := paperEnvs()
	return []Spec{
		{Name: "mixed TE1+TE4 (SP)", Environments: []EnvSpec{envs[0], envs[3]}, PathMode: "SP"},
		{Name: "mixed TE1+TE4 (LP)", Environments: []EnvSpec{envs[0], envs[3]}, PathMode: "LP"},
		{Name: "mixed TE2+TE3 (SP)", Environments: []EnvSpec{envs[1], envs[2]}, PathMode: "SP"},
		{Name: "mixed extremes 0+40 (SP)", Environments: []EnvSpec{{CSN: 0}, {CSN: 40}}, PathMode: "SP"},
	}
}
