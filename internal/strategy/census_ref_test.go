package strategy

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// refCensus is the string-keyed census the packed one replaced, kept as
// the reference its views must reproduce: counts keyed by Key(), ties in
// Top broken by Key, aggregates summed in map order.
type refCensus struct {
	counts map[string]int
	total  int
}

func newRefCensus() *refCensus { return &refCensus{counts: make(map[string]int)} }

func (c *refCensus) Add(s Strategy) {
	c.counts[s.Key()]++
	c.total++
}

func (c *refCensus) Top(k int) []Entry {
	entries := make([]Entry, 0, len(c.counts))
	for key, n := range c.counts {
		entries = append(entries, Entry{
			Strategy: MustParse(key),
			Count:    n,
			Fraction: float64(n) / float64(c.total),
		})
	}
	slices.SortFunc(entries, func(a, b Entry) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return cmp.Compare(a.Strategy.Key(), b.Strategy.Key())
	})
	if k < len(entries) {
		entries = entries[:k]
	}
	return entries
}

func (c *refCensus) SubStrategies(t TrustLevel, minFraction float64) []SubEntry {
	sub := make(map[string]int)
	for key, n := range c.counts {
		sub[MustParse(key).SubStrategy(t)] += n
	}
	out := make([]SubEntry, 0, len(sub))
	for pattern, n := range sub {
		frac := float64(n) / float64(c.total)
		if frac < minFraction {
			continue
		}
		out = append(out, SubEntry{Pattern: pattern, Count: n, Fraction: frac})
	}
	slices.SortFunc(out, func(a, b SubEntry) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return cmp.Compare(a.Pattern, b.Pattern)
	})
	return out
}

func (c *refCensus) UnknownForwardFraction() float64 {
	if c.total == 0 {
		return 0
	}
	fwd := 0
	for key, n := range c.counts {
		if MustParse(key).DecideUnknown() == Forward {
			fwd += n
		}
	}
	return float64(fwd) / float64(c.total)
}

func (c *refCensus) MeanCooperativeness() float64 {
	if c.total == 0 {
		return 0
	}
	sum := 0.0
	for key, n := range c.counts {
		sum += MustParse(key).Cooperativeness() * float64(n)
	}
	return sum / float64(c.total)
}

func (c *refCensus) MeanTrustMonotonicity() float64 {
	if c.total == 0 {
		return 0
	}
	sum := 0.0
	for key, n := range c.counts {
		sum += MustParse(key).TrustMonotonicity() * float64(n)
	}
	return sum / float64(c.total)
}

func (c *refCensus) CategoryCensus() map[Category]float64 {
	out := make(map[Category]float64)
	if c.total == 0 {
		return out
	}
	for key, n := range c.counts {
		out[MustParse(key).Classify()] += float64(n)
	}
	for cat := range out {
		out[cat] /= float64(c.total)
	}
	return out
}

// genomeStrategy builds the strategy whose bit i is bit i of g.
func genomeStrategy(g uint16) Strategy {
	s := AllDiscard()
	for i := 0; i < Bits; i++ {
		s.bits.Set(i, g&(1<<i) != 0)
	}
	return s
}

// censusPair records the same occurrences in a packed and a reference
// census.
func censusPair(genomes []uint16) (*Census, *refCensus) {
	c, ref := NewCensus(), newRefCensus()
	for _, g := range genomes {
		s := genomeStrategy(g)
		c.Add(s)
		ref.Add(s)
	}
	return c, ref
}

// assertMatchesReference compares every census view against the
// reference. Integer-valued views must agree exactly; the float means
// only to rounding, because the reference sums in map order.
func assertMatchesReference(t *testing.T, c *Census, ref *refCensus) {
	t.Helper()
	if c.Total() != ref.total || c.Distinct() != len(ref.counts) {
		t.Fatalf("Total/Distinct %d/%d, reference %d/%d", c.Total(), c.Distinct(), ref.total, len(ref.counts))
	}
	for k := 0; k <= c.Distinct()+1; k++ {
		got, want := c.Top(k), ref.Top(k)
		if len(got) != len(want) {
			t.Fatalf("Top(%d): %d entries, reference %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Strategy.Key() != want[i].Strategy.Key() || got[i].Count != want[i].Count || got[i].Fraction != want[i].Fraction {
				t.Fatalf("Top(%d)[%d] = %s ×%d (%v), reference %s ×%d (%v)", k, i,
					got[i].Strategy.Key(), got[i].Count, got[i].Fraction,
					want[i].Strategy.Key(), want[i].Count, want[i].Fraction)
			}
		}
	}
	for tl := TrustLevel(0); tl < NumTrustLevels; tl++ {
		for _, min := range []float64{0, 0.03} {
			if got, want := c.SubStrategies(tl, min), ref.SubStrategies(tl, min); !reflect.DeepEqual(got, want) {
				t.Fatalf("SubStrategies(%v, %v) = %+v, reference %+v", tl, min, got, want)
			}
		}
	}
	if got, want := c.UnknownForwardFraction(), ref.UnknownForwardFraction(); got != want {
		t.Fatalf("UnknownForwardFraction = %v, reference %v", got, want)
	}
	if got, want := c.CategoryCensus(), ref.CategoryCensus(); !reflect.DeepEqual(got, want) {
		t.Fatalf("CategoryCensus = %v, reference %v", got, want)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }
	if got, want := c.MeanCooperativeness(), ref.MeanCooperativeness(); !near(got, want) {
		t.Fatalf("MeanCooperativeness = %v, reference %v", got, want)
	}
	if got, want := c.MeanTrustMonotonicity(), ref.MeanTrustMonotonicity(); !near(got, want) {
		t.Fatalf("MeanTrustMonotonicity = %v, reference %v", got, want)
	}
}

// TestCensusMatchesReference checks the packed census against the
// string-keyed reference on random populations built to tie: each draws
// a few distinct genomes and repeats them 1–3 times, so Top and
// SubStrategies must break many count ties exactly as the reference does.
func TestCensusMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 200; trial++ {
		var genomes []uint16
		distinct := 1 + r.IntN(40)
		for range distinct {
			g := uint16(r.IntN(1 << Bits))
			for range 1 + r.IntN(3) {
				genomes = append(genomes, g)
			}
		}
		r.Shuffle(len(genomes), func(i, j int) { genomes[i], genomes[j] = genomes[j], genomes[i] })
		c, ref := censusPair(genomes)
		assertMatchesReference(t, c, ref)
	}
	assertMatchesReference(t, NewCensus(), newRefCensus())
}

// FuzzCensusMatchesReference runs the same comparison over fuzz-chosen
// genome multisets: every two input bytes are one genome's 13 bits.
func FuzzCensusMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x1f, 0x00, 0x00, 0xff, 0x1f, 0x00, 0x00})
	f.Add([]byte{0x01, 0x00, 0x00, 0x10, 0x01, 0x00, 0x00, 0x10, 0x55, 0x05, 0xaa, 0x0a})
	f.Fuzz(func(t *testing.T, data []byte) {
		genomes := make([]uint16, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			genomes = append(genomes, binary.LittleEndian.Uint16(data[i:])&(1<<Bits-1))
		}
		c, ref := censusPair(genomes)
		assertMatchesReference(t, c, ref)
	})
}

// TestCensusMeansDeterministic pins the float aggregates to one bit
// pattern per census: they sum in Key order, not Go's randomized map
// order, so repeated calls cannot round differently.
func TestCensusMeansDeterministic(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 5))
	c := NewCensus()
	for range 300 {
		c.Add(genomeStrategy(uint16(r.IntN(1 << Bits))))
	}
	for name, mean := range map[string]func() float64{
		"MeanCooperativeness":   c.MeanCooperativeness,
		"MeanTrustMonotonicity": c.MeanTrustMonotonicity,
	} {
		first := math.Float64bits(mean())
		for i := 1; i < 100; i++ {
			if got := math.Float64bits(mean()); got != first {
				t.Fatalf("%s call %d returned bits %#x, first call %#x", name, i, got, first)
			}
		}
	}
}
