package ga

import (
	"testing"

	"adhocga/internal/bitstring"
	"adhocga/internal/rng"
)

// TestNextGenerationIntoMatchesNextGeneration pins the arena reproduction
// path to the allocating one: same population, config, and seed must yield
// bit-identical offspring and leave the RNG in the same state, across the
// paper, elitism, crossover-rate, and mutation-rate configurations.
func TestNextGenerationIntoMatchesNextGeneration(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"paper", func(*Config) {}},
		{"elitism", func(c *Config) { c.Elitism = 3 }},
		{"low-crossover", func(c *Config) { c.CrossoverProb = 0.3 }},
		{"heavy-mutation", func(c *Config) { c.MutationProb = 0.2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pop := popOf(3, 1, 4, 1, 5, 9, 2, 6)
			cfg := PaperConfig()
			tc.mod(&cfg)

			rA := rng.New(77)
			want, err := NextGeneration(pop, &cfg, rA)
			if err != nil {
				t.Fatal(err)
			}

			rB := rng.New(77)
			var buf Buffers
			// Two rounds through the same arena so the second runs warm.
			for round := 0; round < 2; round++ {
				rB.Reseed(77)
				got, err := NextGenerationInto(pop, &cfg, rB, &buf)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i].String() != want[i].String() {
						t.Fatalf("round %d: offspring %d = %s, want %s",
							round, i, got[i], want[i])
					}
				}
			}
			// Post-state check: one more draw from each stream must agree.
			if a, b := rA.Uint64(), rB.Uint64(); a != b {
				t.Fatalf("RNG streams diverged after reproduction: %x vs %x", a, b)
			}
		})
	}
}

// TestNextGenerationIntoZeroAllocs: with a warm arena and the paper
// configuration (no elitism), reproduction must not allocate at all.
func TestNextGenerationIntoZeroAllocs(t *testing.T) {
	pop := popOf(3, 1, 4, 1, 5, 9, 2, 6)
	cfg := PaperConfig()
	r := rng.New(5)
	var buf Buffers
	if _, err := NextGenerationInto(pop, &cfg, r, &buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := NextGenerationInto(pop, &cfg, r, &buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm NextGenerationInto allocates %.1f times per run, want 0", allocs)
	}
}

// TestNextGenerationIntoDoubleBuffer reproduces from the arena's own
// previous output through a second arena — the engine's double-buffering
// pattern — and checks the offspring still match the allocating path,
// proving the buffers never alias the population they reproduce.
func TestNextGenerationIntoDoubleBuffer(t *testing.T) {
	const gens = 6
	cfg := PaperConfig()

	run := func(arena bool) []string {
		r := rng.New(31)
		pop := make([]Individual, 10)
		for i := range pop {
			pop[i] = Individual{Genome: bitstring.Random(r, 13), Fitness: float64(i % 4)}
		}
		var bufs [2]Buffers
		for g := 0; g < gens; g++ {
			var next []bitstring.Bits
			var err error
			if arena {
				next, err = NextGenerationInto(pop, &cfg, r, &bufs[g%2])
			} else {
				next, err = NextGeneration(pop, &cfg, r)
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := range pop {
				pop[i] = Individual{Genome: next[i], Fitness: float64((i + g) % 5)}
			}
		}
		out := make([]string, len(pop))
		for i := range pop {
			out[i] = pop[i].Genome.Compact()
		}
		return out
	}

	want, got := run(false), run(true)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("generation-%d chain diverged at %d: %s vs %s", gens, i, got[i], want[i])
		}
	}
}
