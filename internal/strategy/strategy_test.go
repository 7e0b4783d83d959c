package strategy

import (
	"testing"
	"testing/quick"

	"adhocga/internal/bitstring"
	"adhocga/internal/rng"
)

// The figure 1c example strategy: "DDD FFF DDD FDD F" in decision letters,
// which is 000 111 000 100 1 in bits (1 = F).
const fig1c = "000 111 000 100 1"

func TestFig1cWorkedExample(t *testing.T) {
	s := MustParse(fig1c)
	// §3.3: trust level 3, activity LO → bit 9 → F.
	if got := s.Decide(Trust3, ActivityLow); got != Forward {
		t.Errorf("Decide(trust3, LO) = %v, want Forward (paper's worked example)", got)
	}
	// Figure: trust 0 row is DDD.
	for a := ActivityLevel(0); a < NumActivityLevels; a++ {
		if got := s.Decide(Trust0, a); got != Discard {
			t.Errorf("Decide(trust0, %v) = %v, want Discard", a, got)
		}
	}
	// Trust 1 row is FFF.
	for a := ActivityLevel(0); a < NumActivityLevels; a++ {
		if got := s.Decide(Trust1, a); got != Forward {
			t.Errorf("Decide(trust1, %v) = %v, want Forward", a, got)
		}
	}
	// Trust 3 row is FDD: MI and HI discard.
	if s.Decide(Trust3, ActivityMedium) != Discard || s.Decide(Trust3, ActivityHigh) != Discard {
		t.Error("trust3 MI/HI should be Discard in the Fig 1c strategy")
	}
	// Bit 12 is F.
	if s.DecideUnknown() != Forward {
		t.Error("unknown decision should be Forward")
	}
}

func TestBitIndexLayout(t *testing.T) {
	// Setting exactly bit i must flip exactly the matching (t, a) pair.
	for tl := TrustLevel(0); tl < NumTrustLevels; tl++ {
		for a := ActivityLevel(0); a < NumActivityLevels; a++ {
			b := bitstring.New(Bits)
			b.Set(int(tl)*3+int(a), true)
			s := New(b)
			for tl2 := TrustLevel(0); tl2 < NumTrustLevels; tl2++ {
				for a2 := ActivityLevel(0); a2 < NumActivityLevels; a2++ {
					want := Discard
					if tl2 == tl && a2 == a {
						want = Forward
					}
					if got := s.Decide(tl2, a2); got != want {
						t.Fatalf("bit %d set: Decide(%v,%v) = %v, want %v",
							int(tl)*3+int(a), tl2, a2, got, want)
					}
				}
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{"", "0101", "01010110111110", "abc", "010 101 101 111"}
	for _, s := range cases {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseTable7Strategies(t *testing.T) {
	// All ten strategies listed in the paper's Table 7 must parse, and all
	// must forward against unknown nodes (the paper's observation).
	table7 := []string{
		"010 101 101 111 1",
		"000 111 111 111 1",
		"000 111 101 111 1",
		"000 011 111 111 1",
		"010 011 101 111 1",
		"010 000 111 111 1",
		"000 000 111 111 1",
		"000 010 111 111 1",
		"000 000 101 111 1",
		"010 000 101 111 1",
	}
	for _, raw := range table7 {
		s, err := Parse(raw)
		if err != nil {
			t.Fatalf("Parse(%q): %v", raw, err)
		}
		if s.DecideUnknown() != Forward {
			t.Errorf("Table 7 strategy %q should forward for unknown nodes", raw)
		}
		// Trust 3 sub-strategy is 111 in every Table 7 strategy.
		if got := s.SubStrategy(Trust3); got != "111" {
			t.Errorf("strategy %q trust3 sub-strategy = %q, want 111", raw, got)
		}
		if got := s.String(); got != raw {
			t.Errorf("String() = %q, want %q", got, raw)
		}
	}
}

func TestNewPanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 5-bit genome did not panic")
		}
	}()
	New(bitstring.New(5))
}

func TestDecidePanicsOnInvalidLevels(t *testing.T) {
	s := AllForward()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid trust level did not panic")
			}
		}()
		s.Decide(TrustLevel(4), ActivityLow)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid activity level did not panic")
			}
		}()
		s.Decide(Trust0, ActivityLevel(3))
	}()
}

func TestAllForwardAllDiscard(t *testing.T) {
	af, ad := AllForward(), AllDiscard()
	for tl := TrustLevel(0); tl < NumTrustLevels; tl++ {
		for a := ActivityLevel(0); a < NumActivityLevels; a++ {
			if af.Decide(tl, a) != Forward {
				t.Errorf("AllForward.Decide(%v,%v) != Forward", tl, a)
			}
			if ad.Decide(tl, a) != Discard {
				t.Errorf("AllDiscard.Decide(%v,%v) != Discard", tl, a)
			}
		}
	}
	if af.DecideUnknown() != Forward || ad.DecideUnknown() != Discard {
		t.Error("unknown decisions wrong")
	}
	if af.Cooperativeness() != 1 || ad.Cooperativeness() != 0 {
		t.Error("cooperativeness of extremes wrong")
	}
}

func TestForwardAtOrAbove(t *testing.T) {
	s := ForwardAtOrAbove(Trust2, Discard)
	for tl := TrustLevel(0); tl < NumTrustLevels; tl++ {
		for a := ActivityLevel(0); a < NumActivityLevels; a++ {
			want := Discard
			if tl >= Trust2 {
				want = Forward
			}
			if got := s.Decide(tl, a); got != want {
				t.Errorf("threshold strategy Decide(%v,%v) = %v, want %v", tl, a, got, want)
			}
		}
	}
	if s.DecideUnknown() != Discard {
		t.Error("unknown decision should be Discard")
	}
	if ForwardAtOrAbove(Trust0, Forward).Cooperativeness() != 1 {
		t.Error("threshold at trust0 with forward-unknown should be all-forward")
	}
}

func TestSubStrategy(t *testing.T) {
	s := MustParse("010 101 101 111 1")
	want := map[TrustLevel]string{Trust0: "010", Trust1: "101", Trust2: "101", Trust3: "111"}
	for tl, w := range want {
		if got := s.SubStrategy(tl); got != w {
			t.Errorf("SubStrategy(%v) = %q, want %q", tl, got, w)
		}
	}
}

func TestKeyAndEqual(t *testing.T) {
	a := MustParse("010 101 101 111 1")
	b := MustParse("0101011011111")
	if a != b {
		t.Error("grouped and ungrouped parse of same strategy are not Equal")
	}
	if a.Key() != b.Key() {
		t.Error("Keys differ for equal strategies")
	}
	c := AllDiscard()
	if a == c || a.Key() == c.Key() {
		t.Error("distinct strategies compare equal")
	}
}

func TestGenomeIsCopy(t *testing.T) {
	s := AllDiscard()
	g := s.Genome()
	g.Set(0, true)
	if s.Decide(Trust0, ActivityLow) != Discard {
		t.Error("mutating the returned genome changed the strategy")
	}
}

func TestLevelStrings(t *testing.T) {
	if ActivityLow.String() != "LO" || ActivityMedium.String() != "MI" || ActivityHigh.String() != "HI" {
		t.Error("activity level strings wrong")
	}
	if Trust3.String() != "trust 3" {
		t.Errorf("TrustLevel string = %q", Trust3.String())
	}
	if Forward.String() != "F" || Discard.String() != "D" {
		t.Error("decision strings wrong")
	}
	if ActivityLevel(9).String() == "" {
		t.Error("invalid activity level should still render")
	}
}

// Property: round-trip through String/Parse preserves all decisions.
func TestRoundTripProperty(t *testing.T) {
	r := rng.New(42)
	f := func() bool {
		s := Random(r)
		p, err := Parse(s.String())
		if err != nil || p != s {
			return false
		}
		for tl := TrustLevel(0); tl < NumTrustLevels; tl++ {
			for a := ActivityLevel(0); a < NumActivityLevels; a++ {
				if p.Decide(tl, a) != s.Decide(tl, a) {
					return false
				}
			}
		}
		return p.DecideUnknown() == s.DecideUnknown()
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cooperativeness equals the fraction of Forward decisions
// enumerated explicitly.
func TestCooperativenessProperty(t *testing.T) {
	r := rng.New(43)
	f := func(uint8) bool {
		s := Random(r)
		fwd := 0
		for tl := TrustLevel(0); tl < NumTrustLevels; tl++ {
			for a := ActivityLevel(0); a < NumActivityLevels; a++ {
				if s.Decide(tl, a) == Forward {
					fwd++
				}
			}
		}
		if s.DecideUnknown() == Forward {
			fwd++
		}
		return s.Cooperativeness() == float64(fwd)/float64(Bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDecide(b *testing.B) {
	s := MustParse(fig1c)
	var sink Decision
	for i := 0; i < b.N; i++ {
		sink = s.Decide(Trust2, ActivityMedium)
	}
	_ = sink
}
