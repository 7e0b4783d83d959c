// Package ga implements the genetic algorithm of §5: a population of
// bit-string genomes evolved by pairwise selection, one-point crossover
// (keeping one random child), and uniform bit-flip mutation.
//
// The package is generic over genome length so the same machinery drives
// both the 13-bit ad hoc strategies and the 5-bit IPDRP strategies of the
// related-work model the paper builds on.
package ga

import (
	"fmt"
	"math"

	"adhocga/internal/bitstring"
	"adhocga/internal/rng"
)

// Individual pairs a genome with the fitness measured for it this
// generation (eq. 1: average payoff over the games played in the
// evaluation pass).
type Individual struct {
	Genome  bitstring.Bits
	Fitness float64
}

// Selector picks one parent index from a population — the selection
// operator slot of the §5 reproduction scheme.
type Selector interface {
	// Select returns the index of the selected individual. Implementations
	// must not modify the population.
	Select(pop []Individual, r *rng.Source) int
}

// TournamentSelector implements k-way tournament selection: draw Size
// individuals uniformly with replacement and keep the fittest. The paper
// uses tournament selection (§5) without giving k; binary (Size=2) is the
// conventional default.
type TournamentSelector struct {
	Size int
}

// Select returns the index of the best of Size uniform draws.
func (t TournamentSelector) Select(pop []Individual, r *rng.Source) int {
	size := t.Size
	if size < 1 {
		size = 2
	}
	best := r.Intn(len(pop))
	for i := 1; i < size; i++ {
		c := r.Intn(len(pop))
		if pop[c].Fitness > pop[best].Fitness {
			best = c
		}
	}
	return best
}

// RouletteSelector implements fitness-proportional selection, the operator
// used by the IPDRP paper [12] that this paper replaces with tournament
// selection. Fitnesses are shifted so the minimum maps to zero; if all
// fitnesses are equal the draw is uniform.
type RouletteSelector struct{}

// Select draws an index with probability proportional to shifted fitness.
func (RouletteSelector) Select(pop []Individual, r *rng.Source) int {
	min := math.Inf(1)
	for _, ind := range pop {
		if ind.Fitness < min {
			min = ind.Fitness
		}
	}
	total := 0.0
	for _, ind := range pop {
		total += ind.Fitness - min
	}
	if total <= 0 {
		return r.Intn(len(pop))
	}
	u := r.Float64() * total
	acc := 0.0
	for i, ind := range pop {
		acc += ind.Fitness - min
		if u < acc {
			return i
		}
	}
	return len(pop) - 1
}

func sortedByFitness(pop []Individual) []int {
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by descending fitness, ties by index for determinism.
	for i := 1; i < len(idx); i++ {
		j := i
		for j > 0 && pop[idx[j]].Fitness > pop[idx[j-1]].Fitness {
			idx[j], idx[j-1] = idx[j-1], idx[j]
			j--
		}
	}
	return idx
}

// Config holds the reproduction parameters of §5.
type Config struct {
	Selector      Selector
	CrossoverProb float64 // paper: 0.9
	MutationProb  float64 // per-bit flip probability; paper: 0.001

	// Elitism copies the fittest Elitism individuals unchanged into the
	// next generation before filling the rest by selection. The paper
	// uses none (0); provided for ablations and extensions.
	Elitism int
}

// PaperConfig returns the GA configuration of §6.1: binary tournament
// selection, one-point crossover with probability 0.9, bit-flip mutation
// with probability 0.001.
func PaperConfig() Config {
	return Config{
		Selector:      TournamentSelector{Size: 2},
		CrossoverProb: 0.9,
		MutationProb:  0.001,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Selector == nil {
		return fmt.Errorf("ga: selector not set")
	}
	if c.CrossoverProb < 0 || c.CrossoverProb > 1 {
		return fmt.Errorf("ga: crossover probability %v outside [0,1]", c.CrossoverProb)
	}
	if c.MutationProb < 0 || c.MutationProb > 1 {
		return fmt.Errorf("ga: mutation probability %v outside [0,1]", c.MutationProb)
	}
	if c.Elitism < 0 {
		return fmt.Errorf("ga: negative elitism %d", c.Elitism)
	}
	return nil
}

// Buffers is the reusable offspring arena of NextGenerationInto: the
// next-generation genome vectors plus the spare child of each crossover
// (the one the scheme discards). A warm Buffers makes reproduction
// allocation-free; the zero value is ready to use and warms up on the
// first call. Buffers must not be shared between concurrent reproducers,
// and its vectors must never alias the population being reproduced — the
// double-buffering caller (core.Engine) alternates two Buffers for exactly
// that reason.
type Buffers struct {
	next  []bitstring.Bits
	spare bitstring.Bits
}

// ensure shapes the arena for n offspring of the given genome length.
func (b *Buffers) ensure(n, length int) {
	if cap(b.next) < n {
		grown := make([]bitstring.Bits, n)
		copy(grown, b.next)
		b.next = grown
	}
	b.next = b.next[:n]
	for i := range b.next {
		if b.next[i].Len() != length {
			b.next[i] = bitstring.New(length)
		}
	}
	if b.spare.Len() != length {
		b.spare = bitstring.New(length)
	}
}

// NextGeneration produces len(pop) offspring genomes by the paper's §5
// scheme: for each slot, select a pair of parents, apply crossover with
// CrossoverProb (otherwise copy), keep one of the two children uniformly
// at random, then mutate it bit-wise. The returned genomes are freshly
// allocated and independent of the population.
func NextGeneration(pop []Individual, cfg *Config, r *rng.Source) ([]bitstring.Bits, error) {
	return NextGenerationInto(pop, cfg, r, &Buffers{})
}

// NextGenerationInto is NextGeneration writing the offspring into the
// given arena: it consumes the identical draw sequence and produces
// bit-identical genomes, but reuses buf's vectors, so a warm arena makes
// the whole reproduction step allocation-free (when Elitism is 0; elitism
// pays one index-slice allocation per call).
// The returned slice and its genomes are owned by buf and overwritten by
// the next call with the same arena; callers that retain them across calls
// must alternate two Buffers (double-buffering) or clone.
func NextGenerationInto(pop []Individual, cfg *Config, r *rng.Source, buf *Buffers) ([]bitstring.Bits, error) {
	if len(pop) == 0 {
		return nil, fmt.Errorf("ga: empty population")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	buf.ensure(len(pop), pop[0].Genome.Len())
	next := buf.next
	start := 0
	if cfg.Elitism > 0 {
		elite := cfg.Elitism
		if elite > len(pop) {
			elite = len(pop)
		}
		order := sortedByFitness(pop)
		for i := 0; i < elite; i++ {
			next[i].CopyFrom(pop[order[i]].Genome)
		}
		start = elite
	}
	for i := start; i < len(next); i++ {
		pa := pop[cfg.Selector.Select(pop, r)].Genome
		pb := pop[cfg.Selector.Select(pop, r)].Genome
		// Draw order is pinned: the crossover's cut draw (if any), then
		// the child coin, then the mutation scan.
		if r.Bool(cfg.CrossoverProb) {
			bitstring.RandomOnePointCrossoverInto(r, pa, pb, next[i], buf.spare)
			if r.Bool(0.5) {
				// The second child is kept: swap the vector headers so it
				// sits in the slot and the first becomes the spare.
				next[i], buf.spare = buf.spare, next[i]
			}
		} else {
			src := pa
			if r.Bool(0.5) {
				src = pb
			}
			next[i].CopyFrom(src)
		}
		next[i].MutateFlip(r, cfg.MutationProb)
	}
	return next, nil
}

// PopulationStats summarizes a generation's fitness distribution and
// genome diversity.
type PopulationStats struct {
	BestFitness  float64
	MeanFitness  float64
	WorstFitness float64
	BestIndex    int
	// Diversity is the mean pairwise Hamming distance divided by genome
	// length: 0 for a converged population, approaching 0.5 for a uniform
	// random one.
	Diversity float64
}

// Stats computes PopulationStats. It panics on an empty population.
func Stats(pop []Individual) PopulationStats {
	if len(pop) == 0 {
		panic("ga: Stats of empty population")
	}
	s := PopulationStats{
		BestFitness:  pop[0].Fitness,
		WorstFitness: pop[0].Fitness,
	}
	sum := 0.0
	for i, ind := range pop {
		sum += ind.Fitness
		if ind.Fitness > s.BestFitness {
			s.BestFitness = ind.Fitness
			s.BestIndex = i
		}
		if ind.Fitness < s.WorstFitness {
			s.WorstFitness = ind.Fitness
		}
	}
	s.MeanFitness = sum / float64(len(pop))

	if n := len(pop); n > 1 {
		length := pop[0].Genome.Len()
		if length > 0 {
			totalDist := 0
			pairs := 0
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					totalDist += pop[i].Genome.Hamming(pop[j].Genome)
					pairs++
				}
			}
			s.Diversity = float64(totalDist) / float64(pairs) / float64(length)
		}
	}
	return s
}
