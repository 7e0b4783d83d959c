package bitstring

import (
	"math"
	"strings"
	"testing"

	"adhocga/internal/rng"
)

// Native fuzz targets for the genetic operators: whatever the inputs, the
// operators must preserve genome length, conserve per-position bit
// multisets across crossover, leave parents untouched, and report
// mutation flip counts that match the actual Hamming distance. CI runs
// these with a short -fuzztime smoke on top of the checked-in corpus
// (testdata/fuzz); locally run e.g.
//
//	go test -fuzz FuzzOperators -fuzztime 30s ./internal/bitstring/
func FuzzOperators(f *testing.F) {
	f.Add(uint16(13), uint64(1), uint64(2), uint64(3), 5, 0.001)
	f.Add(uint16(1), uint64(0), uint64(0), uint64(0), 0, 0.0)
	f.Add(uint16(64), uint64(7), uint64(8), uint64(9), 64, 1.0)
	f.Add(uint16(65), uint64(10), uint64(11), uint64(12), -3, 0.5)
	f.Add(uint16(200), uint64(999), uint64(998), uint64(997), 1000, 2.5)
	f.Fuzz(func(t *testing.T, n uint16, seedA, seedB, seedOp uint64, cut int, p float64) {
		length := 1 + int(n)%256
		a := Random(rng.New(seedA), length)
		b := Random(rng.New(seedB), length)
		aOrig, bOrig := a.Clone(), b.Clone()

		checkPair := func(name string, c, d Bits) {
			t.Helper()
			if c.Len() != length || d.Len() != length {
				t.Fatalf("%s: child lengths %d/%d, want %d", name, c.Len(), d.Len(), length)
			}
			for i := 0; i < length; i++ {
				// Per-position bit conservation: crossover only exchanges,
				// never invents material.
				if (c.Get(i) != a.Get(i) || d.Get(i) != b.Get(i)) &&
					(c.Get(i) != b.Get(i) || d.Get(i) != a.Get(i)) {
					t.Fatalf("%s: position %d not conserved", name, i)
				}
			}
			if a.String() != aOrig.String() || b.String() != bOrig.String() {
				t.Fatalf("%s: parents modified", name)
			}
		}

		c, d := children(a, func(c, d Bits) { OnePointCrossoverInto(a, b, c, d, cut) })
		checkPair("OnePointCrossoverInto", c, d)
		// SWAR vs scalar reference: bit-identical on every input shape.
		if rc, rd := OnePointCrossoverRef(a, b, cut); c.String() != rc.String() || d.String() != rd.String() {
			t.Fatal("OnePointCrossoverInto differs from scalar reference")
		}
		if cut < 1 || cut >= length {
			if c.String() != a.String() || d.String() != b.String() {
				t.Fatal("out-of-range cut must copy the parents")
			}
		} else {
			for i := 0; i < length; i++ {
				wantC, wantD := a.Get(i), b.Get(i)
				if i >= cut {
					wantC, wantD = wantD, wantC
				}
				if c.Get(i) != wantC || d.Get(i) != wantD {
					t.Fatalf("one-point semantics violated at bit %d (cut %d)", i, cut)
				}
			}
		}

		// The randomized forms against the references driven by the same
		// documented draws: identical children and draw count.
		r1, r2 := rng.New(seedOp), rng.New(seedOp)
		c, d = children(a, func(c, d Bits) { RandomOnePointCrossoverInto(r1, a, b, c, d) })
		checkPair("RandomOnePointCrossoverInto", c, d)
		rc, rd := a.Clone(), b.Clone()
		if length >= 2 {
			rc, rd = OnePointCrossoverRef(a, b, r2.IntRange(1, length-1))
		}
		if c.String() != rc.String() || d.String() != rd.String() || r1.Uint64() != r2.Uint64() {
			t.Fatal("RandomOnePointCrossoverInto differs from scalar reference (bits or draw count)")
		}

		// Mutation: the reported flip count is the Hamming distance to the
		// pre-mutation genome, and identical seeds replay identically.
		mp := math.Abs(p)
		mp -= math.Floor(mp) // fold into [0,1)
		m1 := a.Clone()
		flips := m1.MutateFlip(rng.New(seedOp), mp)
		if got := m1.Hamming(a); got != flips {
			t.Fatalf("MutateFlip reported %d flips, Hamming says %d", flips, got)
		}
		m2 := a.Clone()
		m2.MutateFlip(rng.New(seedOp), mp)
		if m1.String() != m2.String() {
			t.Fatal("MutateFlip not deterministic for a fixed seed")
		}
		// SWAR vs the historical per-bit loop: identical bits, flip count
		// and draw count (the engine goldens pin this sequence).
		m3 := a.Clone()
		mr1, mr2 := rng.New(seedOp), rng.New(seedOp)
		m1 = a.Clone()
		f1 := m1.MutateFlip(mr1, mp)
		f2 := m3.MutateFlipRef(mr2, mp)
		if f1 != f2 || m1.String() != m3.String() || mr1.Uint64() != mr2.Uint64() {
			t.Fatal("MutateFlip differs from scalar reference (bits, count, or draws)")
		}
	})
}

// FuzzParse checks the parser against arbitrary input: it must never
// panic, must reject anything containing a non-binary, non-space rune, and
// must round-trip through String for everything it accepts.
func FuzzParse(f *testing.F) {
	f.Add("010 101 101 111 1")
	f.Add("0101011011111")
	f.Add("")
	f.Add("012")
	f.Add("1 0 1")
	f.Add(strings.Repeat("10", 300))
	f.Fuzz(func(t *testing.T, s string) {
		b, err := Parse(s)
		cleaned := strings.ReplaceAll(s, " ", "")
		valid := true
		for _, c := range cleaned {
			if c != '0' && c != '1' {
				valid = false
				break
			}
		}
		if valid != (err == nil) {
			t.Fatalf("Parse(%q) err=%v, want validity %v", s, err, valid)
		}
		if err != nil {
			return
		}
		if b.Len() != len(cleaned) {
			t.Fatalf("parsed %d bits from %d characters", b.Len(), len(cleaned))
		}
		if b.String() != cleaned {
			t.Fatalf("round trip: %q -> %q", cleaned, b.String())
		}
	})
}
