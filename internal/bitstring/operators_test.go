package bitstring

import (
	"strings"
	"testing"
	"testing/quick"

	"adhocga/internal/rng"
)

// ones counts the set bits of b.
func ones(b Bits) int { return strings.Count(b.String(), "1") }

// children runs a crossover into fresh children of the parents' length.
func children(a Bits, cross func(c, d Bits)) (Bits, Bits) {
	c, d := New(a.Len()), New(a.Len())
	cross(c, d)
	return c, d
}

func TestOnePointCrossoverExact(t *testing.T) {
	a := MustParse("11111")
	b := MustParse("00000")
	c, d := children(a, func(c, d Bits) { OnePointCrossoverInto(a, b, c, d, 2) })
	if c.String() != "11000" {
		t.Errorf("child c = %s, want 11000", c)
	}
	if d.String() != "00111" {
		t.Errorf("child d = %s, want 00111", d)
	}
	// Parents untouched.
	if a.String() != "11111" || b.String() != "00000" {
		t.Error("crossover modified a parent")
	}
}

func TestOnePointCrossoverDegenerateCut(t *testing.T) {
	a := MustParse("101")
	b := MustParse("010")
	for _, cut := range []int{0, 3, -5, 100} {
		c, d := children(a, func(c, d Bits) { OnePointCrossoverInto(a, b, c, d, cut) })
		if c.String() != a.String() || d.String() != b.String() {
			t.Errorf("cut %d: children are not parent copies", cut)
		}
	}
}

func TestCrossoverLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	a, b := MustParse("10"), MustParse("101")
	children(a, func(c, d Bits) { OnePointCrossoverInto(a, b, c, d, 1) })
}

// Property: each child position carries one of the two parent alleles, and
// the two children are complementary (child1[i]==a[i] iff child2[i]==b[i]).
func TestCrossoverAlleleProperty(t *testing.T) {
	r := rng.New(10)
	f := func(n uint8, seed uint64) bool {
		length := int(n)%60 + 2
		rr := rng.New(seed)
		a := Random(rr, length)
		b := Random(rr, length)
		c, d := children(a, func(c, d Bits) { RandomOnePointCrossoverInto(r, a, b, c, d) })
		for i := 0; i < length; i++ {
			fromA := c.Get(i) == a.Get(i)
			fromB := c.Get(i) == b.Get(i)
			if !fromA && !fromB {
				return false
			}
			// Complementarity: what c took from a, d must take from b.
			if (c.Get(i) == a.Get(i)) != (d.Get(i) == b.Get(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: one-point crossover conserves the total number of ones across
// the pair.
func TestCrossoverConservesOnesProperty(t *testing.T) {
	r := rng.New(11)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		a := Random(rr, 13)
		b := Random(rr, 13)
		c, d := children(a, func(c, d Bits) { RandomOnePointCrossoverInto(r, a, b, c, d) })
		return ones(a)+ones(b) == ones(c)+ones(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMutateFlipZeroProbability(t *testing.T) {
	r := rng.New(12)
	b := Random(r, 13)
	orig := b.Clone()
	if flips := b.MutateFlip(r, 0); flips != 0 || b.String() != orig.String() {
		t.Error("MutateFlip(0) changed the genome")
	}
}

func TestMutateFlipCertainProbability(t *testing.T) {
	r := rng.New(13)
	b := Random(r, 13)
	orig := b.Clone()
	if flips := b.MutateFlip(r, 1); flips != 13 {
		t.Errorf("MutateFlip(1) flipped %d bits, want 13", flips)
	}
	if b.Hamming(orig) != 13 {
		t.Error("MutateFlip(1) did not invert every bit")
	}
}

func TestMutateFlipRate(t *testing.T) {
	r := rng.New(14)
	const trials = 20000
	const p = 0.1
	flips := 0
	for i := 0; i < trials; i++ {
		b := New(13)
		flips += b.MutateFlip(r, p)
	}
	got := float64(flips) / float64(trials*13)
	if got < 0.09 || got > 0.11 {
		t.Errorf("observed flip rate %v, want about %v", got, p)
	}
}

// Property: MutateFlip returns exactly the Hamming distance to the
// pre-mutation genome.
func TestMutateFlipCountProperty(t *testing.T) {
	r := rng.New(15)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		b := Random(rr, 29)
		before := b.Clone()
		flips := b.MutateFlip(r, 0.3)
		return flips == b.Hamming(before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkOnePointCrossover(b *testing.B) {
	r := rng.New(1)
	x := Random(r, 13)
	y := Random(r, 13)
	c, d := New(13), New(13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RandomOnePointCrossoverInto(r, x, y, c, d)
	}
}

func BenchmarkMutateFlip(b *testing.B) {
	r := rng.New(1)
	x := Random(r, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MutateFlip(r, 0.001)
	}
}
