package bitstring

import (
	"testing"

	"adhocga/internal/rng"
)

// The SWAR operators are pinned bit-identical to the scalar *Ref
// implementations — and, for the randomized ones, draw-identical: after
// running both from equally seeded sources, a sentinel draw from each
// source must agree, proving the operators consumed the same number of
// values. Lengths 1–256 cover every tail shape: sub-word, word-aligned,
// and multi-word with ragged tails.

// swarLengths is the sweep used by the equivalence tests: every length in
// 1–70 (all small/tail shapes around the first word boundary) plus
// representatives up to 256 including the aligned and ±1 cases.
func swarLengths() []int {
	var ls []int
	for n := 1; n <= 70; n++ {
		ls = append(ls, n)
	}
	ls = append(ls, 96, 127, 128, 129, 130, 191, 192, 193, 200, 255, 256)
	return ls
}

func TestOnePointCrossoverMatchesRefAllLengths(t *testing.T) {
	r := rng.New(41)
	for _, n := range swarLengths() {
		a, b := Random(r, n), Random(r, n)
		// Every cut, including the degenerate out-of-range ones.
		for cut := -1; cut <= n+1; cut++ {
			c1, d1 := children(a, func(c, d Bits) { OnePointCrossoverInto(a, b, c, d, cut) })
			c2, d2 := OnePointCrossoverRef(a, b, cut)
			if c1.String() != c2.String() || d1.String() != d2.String() {
				t.Fatalf("n=%d cut=%d: SWAR differs from scalar reference", n, cut)
			}
		}
		// The random form draws its cut as documented: one IntRange for
		// n ≥ 2, none below.
		r1, r2 := rng.New(uint64(n)+7), rng.New(uint64(n)+7)
		c1, d1 := children(a, func(c, d Bits) { RandomOnePointCrossoverInto(r1, a, b, c, d) })
		c2, d2 := a.Clone(), b.Clone()
		if n >= 2 {
			c2, d2 = OnePointCrossoverRef(a, b, r2.IntRange(1, n-1))
		}
		if c1.String() != c2.String() || d1.String() != d2.String() || r1.Uint64() != r2.Uint64() {
			t.Fatalf("n=%d: RandomOnePointCrossoverInto differs from its documented draws", n)
		}
	}
}

func TestMutateFlipMatchesRefAllLengths(t *testing.T) {
	r := rng.New(44)
	for _, n := range swarLengths() {
		for _, p := range []float64{0, 0.001, 0.1, 0.5, 0.9375, 1, 1.5, -2} {
			g := Random(r, n)
			m1, m2 := g.Clone(), g.Clone()
			r1, r2 := rng.New(uint64(n)*31+1), rng.New(uint64(n)*31+1)
			f1 := m1.MutateFlip(r1, p)
			f2 := m2.MutateFlipRef(r2, p)
			if f1 != f2 || m1.String() != m2.String() {
				t.Fatalf("n=%d p=%v: SWAR differs from scalar reference (%d vs %d flips)", n, p, f1, f2)
			}
			if r1.Uint64() != r2.Uint64() {
				t.Fatalf("n=%d p=%v: SWAR consumed a different number of draws", n, p)
			}
		}
	}
}

func TestCopyFrom(t *testing.T) {
	r := rng.New(46)
	src := Random(r, 77)
	dst := Random(r, 77)
	dst.CopyFrom(src)
	if dst.String() != src.String() {
		t.Fatal("CopyFrom did not copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom with mismatched lengths must panic")
		}
	}()
	New(10).CopyFrom(src)
}

// Operator microbenches at the paper's genome length (13), one full word
// (64) and four words (256): the before/after rows of README's
// performance table. The *Ref rows keep the scalar baseline measurable in
// the same binary.

func benchCrossoverPair(b *testing.B, n int, f func(r *rng.Source, x, y, c, d Bits)) {
	r := rng.New(1)
	x, y := Random(r, n), Random(r, n)
	c, d := New(n), New(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(r, x, y, c, d)
	}
}

func BenchmarkOnePointCrossover64(b *testing.B) {
	benchCrossoverPair(b, 64, RandomOnePointCrossoverInto)
}

func BenchmarkOnePointCrossover256(b *testing.B) {
	benchCrossoverPair(b, 256, RandomOnePointCrossoverInto)
}

func BenchmarkOnePointCrossoverRef(b *testing.B) {
	benchCrossoverPair(b, 13, func(r *rng.Source, x, y, _, _ Bits) {
		_, _ = OnePointCrossoverRef(x, y, r.IntRange(1, x.Len()-1))
	})
}

func benchMutate(b *testing.B, n int, p float64) {
	r := rng.New(1)
	x := Random(r, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MutateFlip(r, p)
	}
}

func BenchmarkMutateFlip64(b *testing.B)  { benchMutate(b, 64, 0.001) }
func BenchmarkMutateFlip256(b *testing.B) { benchMutate(b, 256, 0.001) }

func BenchmarkMutateFlipRef(b *testing.B) {
	r := rng.New(1)
	x := Random(r, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MutateFlipRef(r, 0.001)
	}
}
