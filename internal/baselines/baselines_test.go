package baselines

import (
	"strings"
	"testing"

	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/tournament"
)

func mix(groups []Group, csn, rounds int, seed uint64) MixConfig {
	return MixConfig{
		Groups: groups,
		CSN:    csn,
		Rounds: rounds,
		Mode:   network.ShorterPaths(),
		Game:   game.DefaultConfig(),
		Seed:   seed,
	}
}

func TestStandardProfiles(t *testing.T) {
	ps := StandardProfiles()
	if len(ps) != 4 {
		t.Fatalf("%d profiles", len(ps))
	}
	for _, p := range ps {
		got, err := ProfileByName(p.Name)
		if err != nil || got.Strategy != p.Strategy {
			t.Errorf("ProfileByName(%q) mismatch: %v", p.Name, err)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
	if AllCooperate.Strategy.Cooperativeness() != 1 || AllDefect.Strategy.Cooperativeness() != 0 {
		t.Error("extreme profiles wrong")
	}
}

func TestValidate(t *testing.T) {
	good := mix([]Group{{AllCooperate, 10}}, 0, 10, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid mix rejected: %v", err)
	}
	bad := mix([]Group{{AllCooperate, -1}}, 0, 10, 1)
	if err := bad.Validate(); err == nil {
		t.Error("negative count accepted")
	}
	bad = mix([]Group{{AllCooperate, 1}}, 0, 10, 1)
	if err := bad.Validate(); err == nil {
		t.Error("single-player mix accepted")
	}
	bad = mix([]Group{{AllCooperate, 10}}, 0, 0, 1)
	if err := bad.Validate(); err == nil {
		t.Error("zero rounds accepted")
	}
}

// A negative CSN count used to pass validation and run with no selfish
// nodes, while silently eating into the "at least 2 players" check.
func TestValidateRejectsNegativeCSN(t *testing.T) {
	for _, groups := range [][]Group{{{AllCooperate, 10}}, {{AllCooperate, 4}}} {
		cfg := mix(groups, -3, 10, 1)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), "negative CSN") {
			t.Errorf("%d players, CSN -3: err = %v, want a negative-CSN error", groups[0].Count, err)
		}
		if _, err := RunMix(cfg); err == nil {
			t.Errorf("%d players, CSN -3: RunMix ran", groups[0].Count)
		}
	}
}

func TestAllCooperateMixDeliversEverything(t *testing.T) {
	res, err := RunMix(mix([]Group{{AllCooperate, 20}}, 0, 20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cooperation != 1 {
		t.Errorf("all-cooperate cooperation = %v, want 1", res.Cooperation)
	}
	if res.Groups[0].DeliveryRate != 1 || res.Groups[0].ForwardShare != 1 {
		t.Errorf("group stats %+v", res.Groups[0])
	}
}

func TestAllDefectMixDeliversNothing(t *testing.T) {
	res, err := RunMix(mix([]Group{{AllDefect, 20}}, 0, 20, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cooperation != 0 {
		t.Errorf("all-defect cooperation = %v, want 0", res.Cooperation)
	}
	if res.Groups[0].ForwardShare != 0 {
		t.Errorf("all-defect forwarded: %+v", res.Groups[0])
	}
}

func TestDefectorsExploitUnconditionalCooperators(t *testing.T) {
	// Without trust-conditioned behavior, defectors still get their
	// packets delivered by the all-cooperate majority while contributing
	// nothing — the free-rider problem the paper opens with.
	res, err := RunMix(mix([]Group{{AllCooperate, 30}, {AllDefect, 5}}, 0, 50, 3))
	if err != nil {
		t.Fatal(err)
	}
	coop, defect := res.Groups[0], res.Groups[1]
	// Unconditional cooperators never condition on trust, so defectors'
	// packets flow as freely as anyone's (limited only by other defectors
	// happening to sit on the path).
	if defect.DeliveryRate < coop.DeliveryRate-0.1 {
		t.Errorf("defectors should deliver about as well as cooperators here: %v vs %v",
			defect.DeliveryRate, coop.DeliveryRate)
	}
	if defect.Fitness <= coop.Fitness {
		t.Errorf("free riders should out-earn unconditional cooperators: %v vs %v",
			defect.Fitness, coop.Fitness)
	}
}

func TestTrustThresholdPunishesDefectors(t *testing.T) {
	// With trust-conditioned responders, defectors' delivery collapses.
	res, err := RunMix(mix([]Group{{TrustThreshold1, 30}, {AllDefect, 5}}, 0, 150, 4))
	if err != nil {
		t.Fatal(err)
	}
	resp, defect := res.Groups[0], res.Groups[1]
	if defect.DeliveryRate > 0.3 {
		t.Errorf("threshold responders should cut defector delivery, got %v", defect.DeliveryRate)
	}
	// Responders' own packets still occasionally die on unavoidable
	// defector hops (most games offer a single route), but must stay far
	// above the defectors' delivery.
	if resp.DeliveryRate < 0.6 {
		t.Errorf("responders' own delivery too low: %v", resp.DeliveryRate)
	}
	if resp.DeliveryRate < defect.DeliveryRate+0.3 {
		t.Errorf("responders should clearly out-deliver defectors: %v vs %v",
			resp.DeliveryRate, defect.DeliveryRate)
	}
}

func TestCSNDeliveryTracked(t *testing.T) {
	res, err := RunMix(mix([]Group{{TrustThreshold1, 30}}, 10, 100, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.CSNDelivery >= res.Cooperation {
		t.Errorf("CSN delivery %v should fall below normal cooperation %v",
			res.CSNDelivery, res.Cooperation)
	}
}

func TestRunMixDeterministic(t *testing.T) {
	cfg := mix([]Group{{TrustThreshold1, 15}, {AllDefect, 5}}, 5, 50, 9)
	a, err := RunMix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cooperation != b.Cooperation || a.CSNDelivery != b.CSNDelivery {
		t.Error("RunMix not deterministic")
	}
}

func TestPathraterComparison(t *testing.T) {
	// Route avoidance alone (all-forward population, reputation-rated
	// paths vs random paths) must improve cooperation in the presence of
	// CSN — the Marti et al. effect the paper cites (§2; +17% with 20
	// selfish of 50).
	base := MixConfig{
		Groups: []Group{{Profile: AllCooperate, Count: 30}},
		CSN:    12,
		Rounds: 200,
		Mode:   network.ShorterPaths(),
		Game:   game.DefaultConfig(),
		Seed:   6,
	}
	rated, err := RunMix(base)
	if err != nil {
		t.Fatal(err)
	}
	base.PathChoice = tournament.RandomPath
	unrated, err := RunMix(base)
	if err != nil {
		t.Fatal(err)
	}
	withRating, withoutRating := rated.Cooperation, unrated.Cooperation
	if withRating <= withoutRating {
		t.Errorf("path rating should improve cooperation: %v vs %v", withRating, withoutRating)
	}
	improvement := withRating - withoutRating
	if improvement < 0.05 {
		t.Errorf("improvement %v too small to be the pathrater effect", improvement)
	}
}

func TestRandomPathChoiceAblation(t *testing.T) {
	// Under RandomPath, the chosen path ignores reputation, so with heavy
	// CSN presence cooperation drops toward the unavoidable collision
	// rate.
	base := mix([]Group{{AllCooperate, 25}}, 25, 100, 7)
	rated, err := RunMix(base)
	if err != nil {
		t.Fatal(err)
	}
	base.PathChoice = tournament.RandomPath
	random, err := RunMix(base)
	if err != nil {
		t.Fatal(err)
	}
	if rated.Cooperation <= random.Cooperation {
		t.Errorf("rating should beat random choice: %v vs %v", rated.Cooperation, random.Cooperation)
	}
}

func BenchmarkRunMix(b *testing.B) {
	cfg := mix([]Group{{TrustThreshold1, 40}}, 10, 20, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunMix(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
