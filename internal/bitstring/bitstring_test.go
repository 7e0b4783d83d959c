package bitstring

import (
	"strings"
	"testing"
	"testing/quick"

	"adhocga/internal/rng"
)

func TestNewZero(t *testing.T) {
	b := New(13)
	if b.Len() != 13 {
		t.Fatalf("Len = %d, want 13", b.Len())
	}
	for i := 0; i < 13; i++ {
		if b.Get(i) {
			t.Fatalf("bit %d of fresh string is set", i)
		}
	}
	if b.String() != "0000000000000" {
		t.Fatalf("New(13) = %s, want all zeros", b)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetFlip(t *testing.T) {
	b := New(70) // spans two words
	b.Set(0, true)
	b.Set(69, true)
	b.Set(64, true)
	if !b.Get(0) || !b.Get(69) || !b.Get(64) {
		t.Fatal("Set bits not readable")
	}
	if ones(b) != 3 {
		t.Fatalf("%d bits set, want 3", ones(b))
	}
	b.Set(64, !b.Get(64))
	if b.Get(64) {
		t.Fatal("flipping bit 64 did not clear it")
	}
	b.Set(0, false)
	if b.Get(0) {
		t.Fatal("Set(0,false) did not clear")
	}
}

func TestIndexPanics(t *testing.T) {
	b := New(5)
	for _, i := range []int{-1, 5, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			b.Get(i)
		}()
	}
}

func TestParseRoundtrip(t *testing.T) {
	cases := []string{"", "0", "1", "0101101101111", "1111111111111", "0000000000000"}
	for _, s := range cases {
		b, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := b.String(); got != s {
			t.Errorf("roundtrip of %q gave %q", s, got)
		}
	}
}

func TestParseGrouped(t *testing.T) {
	b, err := Parse("010 101 101 111 1")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 13 {
		t.Fatalf("grouped parse length = %d, want 13", b.Len())
	}
	if b.String() != "0101011011111" {
		t.Errorf("grouped parse = %q", b.String())
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, s := range []string{"012", "abc", "0101x"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse("2")
}

func TestGroupString(t *testing.T) {
	b := MustParse("0101011011111")
	if got := b.GroupString(3, 3, 3, 3, 1); got != "010 101 101 111 1" {
		t.Errorf("GroupString = %q", got)
	}
	// Remaining bits form a trailing group.
	if got := b.GroupString(3, 3); got != "010 101 1011111" {
		t.Errorf("GroupString(3,3) = %q", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustParse("1010")
	b := a.Clone()
	b.Set(0, false)
	if !a.Get(0) {
		t.Fatal("mutating a clone changed the original")
	}
	if a.String() == b.String() {
		t.Fatal("clone should differ after flip")
	}
}

func TestHamming(t *testing.T) {
	a := MustParse("10101")
	b := MustParse("00111")
	if got := a.Hamming(b); got != 2 {
		t.Errorf("Hamming = %d, want 2", got)
	}
	if got := a.Hamming(a); got != 0 {
		t.Errorf("self Hamming = %d", got)
	}
}

func TestHammingPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustParse("10").Hamming(MustParse("101"))
}

func TestRandomMasksTail(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 50; trial++ {
		b := Random(r, 13)
		// The canonical string must have exactly 13 chars and the Compact
		// keys of equal strings must collide.
		if len(b.String()) != 13 {
			t.Fatalf("Random(13) string length %d", len(b.String()))
		}
		c := b.Clone()
		if b.Compact() != c.Compact() {
			t.Fatal("clone has different Compact key")
		}
	}
}

func TestRandomCoversBothValues(t *testing.T) {
	r := rng.New(2)
	ones := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		ones += strings.Count(Random(r, 13).String(), "1")
	}
	total := trials * 13
	if ones < total/3 || ones > 2*total/3 {
		t.Errorf("Random produced %d ones of %d bits; distribution looks broken", ones, total)
	}
}

// Property: Parse(String(b)) == b for random bit strings.
func TestStringParseProperty(t *testing.T) {
	r := rng.New(3)
	f := func(n uint8) bool {
		b := Random(r, int(n)%100)
		p, err := Parse(b.String())
		return err == nil && p.String() == b.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the set bits of b and of its complement add up to Len.
func TestOneCountComplementProperty(t *testing.T) {
	r := rng.New(4)
	f := func(n uint8) bool {
		b := Random(r, int(n)%100+1)
		inv := b.Clone()
		for i := 0; i < inv.Len(); i++ {
			inv.Set(i, !inv.Get(i))
		}
		return ones(b)+ones(inv) == b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompactDistinguishes(t *testing.T) {
	seen := map[string]bool{}
	r := rng.New(5)
	for i := 0; i < 100; i++ {
		seen[Random(r, 13).Compact()] = true
	}
	if len(seen) < 50 {
		t.Errorf("only %d distinct Compact keys from 100 random 13-bit strings", len(seen))
	}
	if strings.ContainsAny(Random(r, 13).Compact(), " \t") {
		t.Error("Compact contains whitespace")
	}
}

func BenchmarkRandom13(b *testing.B) {
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		_ = Random(r, 13)
	}
}

func BenchmarkHamming(b *testing.B) {
	r := rng.New(1)
	x := Random(r, 13)
	y := Random(r, 13)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink = x.Hamming(y)
	}
	_ = sink
}
