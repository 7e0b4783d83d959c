package strategy

import (
	"math"
	"testing"

	"adhocga/internal/rng"
)

func TestForwardFractionAt(t *testing.T) {
	s := MustParse("010 111 000 110 1")
	cases := []struct {
		tl   TrustLevel
		want float64
	}{
		{Trust0, 1.0 / 3}, {Trust1, 1}, {Trust2, 0}, {Trust3, 2.0 / 3},
	}
	for _, c := range cases {
		if got := s.ForwardFractionAt(c.tl); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ForwardFractionAt(%v) = %v, want %v", c.tl, got, c.want)
		}
	}
}

func TestTrustMonotonicity(t *testing.T) {
	// Perfectly monotone: stricter at low trust.
	mono := MustParse("000 000 111 111 1")
	if got := mono.TrustMonotonicity(); got != 1 {
		t.Errorf("monotone strategy scores %v", got)
	}
	// All-forward and all-discard are trivially monotone.
	if AllForward().TrustMonotonicity() != 1 || AllDiscard().TrustMonotonicity() != 1 {
		t.Error("uniform strategies should be monotone")
	}
	// Perfectly anti-monotone: forward only at low trust.
	anti := MustParse("111 000 000 000 0")
	// Violations: trust0→trust1 F→D in 3 activities; other 6 pairs fine.
	if got := anti.TrustMonotonicity(); math.Abs(got-6.0/9.0) > 1e-12 {
		t.Errorf("anti-monotone strategy scores %v, want 2/3", got)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		s    Strategy
		want Category
	}{
		{AllForward(), CategoryAltruist},
		{AllDiscard(), CategoryDefector},
		{MustParse("111 111 111 111 0"), CategoryAltruist},   // one discard bit still altruist
		{MustParse("000 000 000 000 1"), CategoryDefector},   // one forward bit still defector
		{MustParse("000 000 111 111 1"), CategoryReciprocal}, // strict below, generous above
		{MustParse("111 111 000 000 0"), CategoryContrarian},
		{MustParse("010 101 101 011 1"), CategoryMixed},
	}
	for _, c := range cases {
		if got := c.s.Classify(); got != c.want {
			t.Errorf("Classify(%s) = %s, want %s", c.s, got, c.want)
		}
	}
}

func TestPaperWinnersAreReciprocal(t *testing.T) {
	// The paper's Table 7 winners must classify as reciprocal (or at
	// least never contrarian) and be highly trust-monotone.
	winners := []string{
		"010 101 101 111 1",
		"000 111 111 111 1",
		"000 000 111 111 1",
		"000 010 111 111 1",
	}
	for _, raw := range winners {
		s := MustParse(raw)
		cat := s.Classify()
		if cat == CategoryContrarian || cat == CategoryDefector {
			t.Errorf("paper winner %q classified %s", raw, cat)
		}
		if s.TrustMonotonicity() < 0.6 {
			t.Errorf("paper winner %q monotonicity %v", raw, s.TrustMonotonicity())
		}
	}
}

func TestCategoryCensus(t *testing.T) {
	c := NewCensus()
	c.AddAll([]Strategy{AllForward(), AllDiscard(), MustParse("000 000 111 111 1"), MustParse("000 000 111 111 1")})
	cats := c.CategoryCensus()
	if math.Abs(cats[CategoryAltruist]-0.25) > 1e-12 {
		t.Errorf("altruist share %v", cats[CategoryAltruist])
	}
	if math.Abs(cats[CategoryReciprocal]-0.5) > 1e-12 {
		t.Errorf("reciprocal share %v", cats[CategoryReciprocal])
	}
	if len(NewCensus().CategoryCensus()) != 0 {
		t.Error("empty census should have no categories")
	}
}

func TestMeanTrustMonotonicity(t *testing.T) {
	c := NewCensus()
	c.AddAll([]Strategy{
		MustParse("000 000 111 111 1"), // 1.0
		MustParse("111 000 000 000 0"), // 2/3
	})
	want := (1.0 + 2.0/3.0) / 2
	if got := c.MeanTrustMonotonicity(); math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanTrustMonotonicity = %v, want %v", got, want)
	}
	if NewCensus().MeanTrustMonotonicity() != 0 {
		t.Error("empty census should return 0")
	}
}

// Property: TrustMonotonicity is always in [0,1] and flipping a random
// discard bit to forward never lowers cooperativeness.
func TestAnalysisProperties(t *testing.T) {
	r := rng.New(44)
	for i := 0; i < 500; i++ {
		s := Random(r)
		m := s.TrustMonotonicity()
		if m < 0 || m > 1 {
			t.Fatalf("monotonicity %v outside [0,1]", m)
		}
		g := s.Genome()
		idx := r.Intn(Bits)
		if !g.Get(idx) {
			g.Set(idx, true)
			if New(g).Cooperativeness() <= s.Cooperativeness() {
				t.Fatal("adding a forward bit lowered cooperativeness")
			}
		}
	}
}
