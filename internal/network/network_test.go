package network

import (
	"math"
	"testing"

	"adhocga/internal/rng"
)

func TestPathString(t *testing.T) {
	p := Path{Src: 3, Dst: 9, Intermediates: []NodeID{7, 1}}
	if got := p.String(); got != "3 -> 7 -> 1 -> 9" {
		t.Errorf("String = %q", got)
	}
}

// Table 2 check: the SP and LP presets must reproduce the paper's
// probabilities exactly.
func TestPathLengthDistributionMatchesTable2(t *testing.T) {
	sp := ShorterPathLengths()
	lp := LongerPathLengths()
	spWant := map[int]float64{2: 0.2, 3: 0.3, 4: 0.3, 5: 0.05, 6: 0.05, 7: 0.05, 8: 0.05, 9: 0, 10: 0}
	lpWant := map[int]float64{2: 0.1, 3: 0.1, 4: 0.1, 5: 0.1, 6: 0.1, 7: 0.1, 8: 0.1, 9: 0.15, 10: 0.15}
	for hops := MinHops; hops <= MaxHops; hops++ {
		if got := sp.Prob(hops); math.Abs(got-spWant[hops]) > 1e-12 {
			t.Errorf("SP Prob(%d) = %v, want %v", hops, got, spWant[hops])
		}
		if got := lp.Prob(hops); math.Abs(got-lpWant[hops]) > 1e-12 {
			t.Errorf("LP Prob(%d) = %v, want %v", hops, got, lpWant[hops])
		}
	}
	if sp.Prob(1) != 0 || sp.Prob(11) != 0 {
		t.Error("out-of-range hop counts should have probability 0")
	}
}

func TestLengthDistSampleFrequencies(t *testing.T) {
	r := rng.New(5)
	d := ShorterPathLengths()
	const draws = 200000
	counts := map[int]int{}
	for i := 0; i < draws; i++ {
		h := d.hops(r.Uint64())
		if h < MinHops || h > MaxHops {
			t.Fatalf("sampled %d hops", h)
		}
		counts[h]++
	}
	if counts[9] != 0 || counts[10] != 0 {
		t.Errorf("SP mode sampled 9/10 hops: %d/%d times", counts[9], counts[10])
	}
	for hops := MinHops; hops <= 8; hops++ {
		got := float64(counts[hops]) / draws
		if math.Abs(got-d.Prob(hops)) > 0.005 {
			t.Errorf("frequency of %d hops = %v, want %v", hops, got, d.Prob(hops))
		}
	}
}

func TestNewLengthDistValidation(t *testing.T) {
	cases := []map[int]float64{
		{1: 1.0},          // below MinHops
		{11: 1.0},         // above MaxHops
		{2: -0.5, 3: 1.5}, // negative
		{2: 0.3, 3: 0.3},  // sums to 0.6
		{2: 0.7, 3: 0.7},  // sums to 1.4
	}
	for i, probs := range cases {
		if _, err := NewLengthDist(probs); err == nil {
			t.Errorf("case %d: NewLengthDist(%v) succeeded, want error", i, probs)
		}
	}
}

// Table 3 check: the alternate-path preset matches the paper's rows.
func TestAlternatePathDistributionMatchesTable3(t *testing.T) {
	d := Table3Alternates()
	rows := []struct {
		hops []int
		p    [3]float64
	}{
		{[]int{2, 3}, [3]float64{0.5, 0.3, 0.2}},
		{[]int{4, 5, 6}, [3]float64{0.6, 0.25, 0.15}},
		{[]int{7, 8, 9, 10}, [3]float64{0.8, 0.15, 0.05}}, // 9-10 extend the 7-8 row
	}
	for _, row := range rows {
		for _, h := range row.hops {
			for n := 1; n <= 3; n++ {
				if got := d.row(h).Prob(n - 1); math.Abs(got-row.p[n-1]) > 1e-12 {
					t.Errorf("P(hops=%d, n=%d) = %v, want %v", h, n, got, row.p[n-1])
				}
			}
		}
	}
}

func TestAlternatesSampleRange(t *testing.T) {
	r := rng.New(6)
	d := Table3Alternates()
	for hops := MinHops; hops <= MaxHops; hops++ {
		for i := 0; i < 500; i++ {
			n := d.count(r.Uint64(), hops)
			if n < 1 || n > MaxAlternatePaths {
				t.Fatalf("Sample(hops=%d) = %d", hops, n)
			}
		}
	}
}

func TestPathModes(t *testing.T) {
	sp, lp := ShorterPaths(), LongerPaths()
	if sp.Name != "SP" || lp.Name != "LP" {
		t.Errorf("mode names = %q, %q", sp.Name, lp.Name)
	}
	if sp.Lengths.Prob(9) != 0 {
		t.Error("SP mode should never pick 9 hops")
	}
	if math.Abs(lp.Lengths.Prob(9)-0.15) > 1e-12 {
		t.Error("LP mode should pick 9 hops with probability 0.15")
	}
}

func TestModeByName(t *testing.T) {
	for _, tc := range []struct {
		name, want string
	}{
		{"", "SP"}, {"SP", "SP"}, {"sp", "SP"}, {"Sp", "SP"},
		{"LP", "LP"}, {"lp", "LP"}, {"lP", "LP"},
		{"XP", ""}, {"S P", ""}, {" SP", ""}, {"MIX(0.5)", ""}, {"shorter", ""},
	} {
		mode, err := ModeByName(tc.name)
		if tc.want == "" {
			if err == nil {
				t.Errorf("ModeByName(%q) = %q, want an error", tc.name, mode.Name)
			}
			continue
		}
		if err != nil || mode.Name != tc.want {
			t.Errorf("ModeByName(%q) = %q, %v; want %q", tc.name, mode.Name, err, tc.want)
		}
	}
	if lp, _ := ModeByName("lp"); math.Abs(lp.Lengths.Prob(9)-0.15) > 1e-12 {
		t.Error("ModeByName(\"lp\") does not carry the LP length distribution")
	}
}

func TestMixedPathLengthsBlend(t *testing.T) {
	sp, lp := ShorterPathLengths(), LongerPathLengths()
	if d := MixedPathLengths(0); d.Prob(9) != sp.Prob(9) || d.Prob(2) != sp.Prob(2) {
		t.Error("alpha 0 is not SP")
	}
	if d := MixedPathLengths(1); d.Prob(9) != lp.Prob(9) || d.Prob(2) != lp.Prob(2) {
		t.Error("alpha 1 is not LP")
	}
	d := MixedPathLengths(0.5)
	for h := MinHops; h <= MaxHops; h++ {
		want := 0.5*sp.Prob(h) + 0.5*lp.Prob(h)
		if math.Abs(d.Prob(h)-want) > 1e-12 {
			t.Errorf("alpha 0.5 Prob(%d) = %v, want %v", h, d.Prob(h), want)
		}
	}
	// Clamping.
	if d := MixedPathLengths(-2); d.Prob(2) != sp.Prob(2) {
		t.Error("alpha below 0 not clamped to SP")
	}
	if d := MixedPathLengths(3); d.Prob(10) != lp.Prob(10) {
		t.Error("alpha above 1 not clamped to LP")
	}
}

func TestModeAlpha(t *testing.T) {
	cases := []struct {
		mode  PathMode
		alpha float64
		ok    bool
	}{
		{ShorterPaths(), 0, true},
		{LongerPaths(), 1, true},
		{MixedPaths(0.25), 0.25, true},
		{PathMode{Name: "custom"}, 0, false},
		{PathMode{Name: "MIX(garbage)"}, 0, false},
	}
	for _, tc := range cases {
		alpha, ok := ModeAlpha(tc.mode)
		if ok != tc.ok || (ok && math.Abs(alpha-tc.alpha) > 1e-9) {
			t.Errorf("ModeAlpha(%q) = %v/%v, want %v/%v", tc.mode.Name, alpha, ok, tc.alpha, tc.ok)
		}
	}
}
