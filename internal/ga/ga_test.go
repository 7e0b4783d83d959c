package ga

import (
	"math"
	"strings"
	"testing"

	"adhocga/internal/bitstring"
	"adhocga/internal/rng"
)

func popOf(fitness ...float64) []Individual {
	pop := make([]Individual, len(fitness))
	r := rng.New(99)
	for i, f := range fitness {
		pop[i] = Individual{Genome: bitstring.Random(r, 13), Fitness: f}
	}
	return pop
}

func TestTournamentSelectorPrefersFitter(t *testing.T) {
	pop := popOf(0, 0, 0, 0, 10)
	r := rng.New(1)
	sel := TournamentSelector{Size: 3}
	wins := 0
	const draws = 10000
	for i := 0; i < draws; i++ {
		if sel.Select(pop, r) == 4 {
			wins++
		}
	}
	// P(best in 3 draws of 5) = 1 - (4/5)^3 = 0.488.
	got := float64(wins) / draws
	if math.Abs(got-0.488) > 0.02 {
		t.Errorf("best selected with frequency %v, want about 0.488", got)
	}
}

func TestTournamentSelectorDefaultSize(t *testing.T) {
	pop := popOf(1, 5)
	r := rng.New(2)
	sel := TournamentSelector{} // Size 0 → default 2
	wins := 0
	const draws = 10000
	for i := 0; i < draws; i++ {
		if sel.Select(pop, r) == 1 {
			wins++
		}
	}
	// Binary tournament over 2 individuals: best wins 3/4 of draws.
	got := float64(wins) / draws
	if math.Abs(got-0.75) > 0.02 {
		t.Errorf("best selected with frequency %v, want about 0.75", got)
	}
}

func TestRouletteSelectorProportional(t *testing.T) {
	// Shifted fitnesses: 0, 1, 3 → probabilities 0, 1/4, 3/4.
	pop := popOf(2, 3, 5)
	r := rng.New(3)
	counts := make([]int, 3)
	const draws = 40000
	for i := 0; i < draws; i++ {
		counts[RouletteSelector{}.Select(pop, r)]++
	}
	if counts[0] != 0 {
		t.Errorf("minimum-fitness individual selected %d times by roulette", counts[0])
	}
	got1 := float64(counts[1]) / draws
	if math.Abs(got1-0.25) > 0.02 {
		t.Errorf("middle selected with frequency %v, want 0.25", got1)
	}
}

func TestRouletteSelectorUniformWhenFlat(t *testing.T) {
	pop := popOf(4, 4, 4, 4)
	r := rng.New(4)
	counts := make([]int, 4)
	const draws = 40000
	for i := 0; i < draws; i++ {
		counts[RouletteSelector{}.Select(pop, r)]++
	}
	for i, c := range counts {
		got := float64(c) / draws
		if math.Abs(got-0.25) > 0.02 {
			t.Errorf("flat-fitness roulette picked %d with frequency %v", i, got)
		}
	}
}

func TestPaperConfigValid(t *testing.T) {
	cfg := PaperConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	if cfg.CrossoverProb != 0.9 || cfg.MutationProb != 0.001 {
		t.Errorf("paper parameters wrong: %+v", cfg)
	}
	if ts, ok := cfg.Selector.(TournamentSelector); !ok || ts.Size != 2 {
		t.Error("paper selector should be binary tournament")
	}
}

func TestConfigValidateErrors(t *testing.T) {
	base := PaperConfig()
	cases := []func(*Config){
		func(c *Config) { c.Selector = nil },
		func(c *Config) { c.CrossoverProb = -0.1 },
		func(c *Config) { c.CrossoverProb = 1.1 },
		func(c *Config) { c.MutationProb = 2 },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestNextGenerationSizeAndLength(t *testing.T) {
	r := rng.New(6)
	pop := popOf(1, 2, 3, 4, 5)
	cfg := PaperConfig()
	next, err := NextGeneration(pop, &cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != len(pop) {
		t.Fatalf("offspring count %d, want %d", len(next), len(pop))
	}
	for i, g := range next {
		if g.Len() != 13 {
			t.Errorf("offspring %d has %d bits", i, g.Len())
		}
	}
}

func TestNextGenerationEmptyPopulation(t *testing.T) {
	cfg := PaperConfig()
	if _, err := NextGeneration(nil, &cfg, rng.New(1)); err == nil {
		t.Error("empty population accepted")
	}
}

func TestNextGenerationSelectionPressure(t *testing.T) {
	// One genome is all ones and vastly fitter; with no mutation the next
	// generation should be dominated by its bits.
	r := rng.New(7)
	pop := make([]Individual, 20)
	for i := range pop {
		pop[i] = Individual{Genome: bitstring.New(13), Fitness: 0}
	}
	ones := bitstring.New(13)
	for i := 0; i < 13; i++ {
		ones.Set(i, true)
	}
	pop[7] = Individual{Genome: ones, Fitness: 100}
	cfg := PaperConfig()
	cfg.MutationProb = 0
	next, err := NextGeneration(pop, &cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	totalOnes := 0
	for _, g := range next {
		totalOnes += strings.Count(g.String(), "1")
	}
	// Binary tournament with 1 winner of 20: P(pick winner) ≈ 0.0975 per
	// parent draw. Expected ones fraction ≈ P(at least one parent is the
	// winner)·(mixing) — empirically well above the all-zero baseline.
	if totalOnes == 0 {
		t.Error("selection pressure produced no copies of the fit genome")
	}
}

func TestNextGenerationNoCrossoverNoMutationCopies(t *testing.T) {
	r := rng.New(8)
	pop := popOf(1, 1, 1, 1)
	cfg := PaperConfig()
	cfg.CrossoverProb = 0
	cfg.MutationProb = 0
	next, err := NextGeneration(pop, &cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range next {
		found := false
		for _, ind := range pop {
			if g.String() == ind.Genome.String() {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("offspring %d is not a copy of any parent", i)
		}
	}
}

// TestNextGenerationAppliesOnePointCrossover: with crossover certain and
// no mutation, every offspring of an all-zeros × all-ones population is a
// one-point child, a run of one parent's bits then the other's, and some
// offspring are mixed.
func TestNextGenerationAppliesOnePointCrossover(t *testing.T) {
	pop := make([]Individual, 6)
	for i := range pop {
		g := bitstring.New(13)
		for j := 0; i%2 == 1 && j < g.Len(); j++ {
			g.Set(j, true)
		}
		pop[i] = Individual{Genome: g, Fitness: float64(i)}
	}
	cfg := PaperConfig()
	cfg.CrossoverProb = 1
	cfg.MutationProb = 0
	next, err := NextGeneration(pop, &cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	mixed := 0
	for i, g := range next {
		s := g.String()
		cut := strings.IndexByte(s, s[0]^1) // first bit that differs from bit 0
		if cut < 0 {
			continue
		}
		mixed++
		if strings.IndexByte(s[cut:], s[0]) >= 0 {
			t.Errorf("offspring %d = %s is not a one-point child", i, s)
		}
	}
	if mixed == 0 {
		t.Error("no offspring mixes the parents")
	}
}

func TestNextGenerationDeterministic(t *testing.T) {
	gen := func() []string {
		r := rng.New(9)
		pop := popOf(3, 1, 4, 1, 5)
		cfg := PaperConfig()
		next, err := NextGeneration(pop, &cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(next))
		for i, g := range next {
			keys[i] = g.Compact()
		}
		return keys
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic offspring at %d", i)
		}
	}
}

func TestElitismPreservesBest(t *testing.T) {
	r := rng.New(20)
	pop := make([]Individual, 10)
	for i := range pop {
		pop[i] = Individual{Genome: bitstring.New(13), Fitness: float64(i)}
	}
	best := bitstring.MustParse("1010101010101")
	pop[9] = Individual{Genome: best, Fitness: 100}
	cfg := PaperConfig()
	cfg.Elitism = 2
	cfg.MutationProb = 1 // maximal disruption for non-elite slots
	next, err := NextGeneration(pop, &cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	if next[0].String() != best.String() {
		t.Errorf("elite slot 0 = %s, want the best genome", next[0])
	}
	// Second elite is the runner-up (fitness 8 → all-zero genome).
	if strings.Contains(next[1].String(), "1") {
		t.Errorf("elite slot 1 = %s, want the runner-up", next[1])
	}
}

func TestElitismOversizedClamps(t *testing.T) {
	r := rng.New(21)
	pop := popOf(1, 2)
	cfg := PaperConfig()
	cfg.Elitism = 10
	next, err := NextGeneration(pop, &cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != 2 {
		t.Errorf("%d offspring", len(next))
	}
}

func TestNegativeElitismRejected(t *testing.T) {
	cfg := PaperConfig()
	cfg.Elitism = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative elitism accepted")
	}
}

func TestStats(t *testing.T) {
	pop := popOf(1, 2, 3)
	s := Stats(pop)
	if s.BestFitness != 3 || s.WorstFitness != 1 || math.Abs(s.MeanFitness-2) > 1e-12 {
		t.Errorf("stats = %+v", s)
	}
	if s.BestIndex != 2 {
		t.Errorf("best index = %d", s.BestIndex)
	}
}

func TestStatsDiversity(t *testing.T) {
	// Converged population → diversity 0.
	g := bitstring.MustParse("1010101010101")
	pop := []Individual{{Genome: g.Clone()}, {Genome: g.Clone()}, {Genome: g.Clone()}}
	if d := Stats(pop).Diversity; d != 0 {
		t.Errorf("converged diversity = %v", d)
	}
	// Two complementary genomes → diversity 1.
	inv := g.Clone()
	for i := 0; i < inv.Len(); i++ {
		inv.Set(i, !inv.Get(i))
	}
	pop2 := []Individual{{Genome: g}, {Genome: inv}}
	if d := Stats(pop2).Diversity; math.Abs(d-1) > 1e-12 {
		t.Errorf("complementary diversity = %v", d)
	}
}

func TestStatsPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Stats(nil)
}

func BenchmarkNextGeneration100(b *testing.B) {
	r := rng.New(1)
	pop := make([]Individual, 100)
	for i := range pop {
		pop[i] = Individual{Genome: bitstring.Random(r, 13), Fitness: r.Float64()}
	}
	cfg := PaperConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NextGeneration(pop, &cfg, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStats100(b *testing.B) {
	r := rng.New(1)
	pop := make([]Individual, 100)
	for i := range pop {
		pop[i] = Individual{Genome: bitstring.Random(r, 13), Fitness: r.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Stats(pop)
	}
}
