package adhocga

// Reproduction assertions: the paper's headline shapes must hold at
// reduced scale on fixed seeds. These are the repository's regression
// net — if a refactor silently changes the model's dynamics, these fail
// before any benchmark is read.

import (
	"testing"

	"adhocga/internal/experiment"
	"adhocga/internal/scenario"
)

// runCase runs Table 4 case id the way every case runs: as a one-scenario
// batch whose master seed is pinned to opts.Seed.
func runCase(tb testing.TB, id int, sc experiment.Scale, opts experiment.Options) *experiment.CaseResult {
	tb.Helper()
	out, err := runBatch([]experiment.ScenarioRun{{Spec: scenario.Table4()[id-1], Seed: opts.Seed}}, sc, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return out[0]
}

// repro runs one case at a small-but-sufficient scale (paper rounds, 25
// generations, 2 replicates).
func repro(t *testing.T, id int, seed uint64) *experiment.CaseResult {
	t.Helper()
	sc := experiment.Scale{Name: "repro", Generations: 25, Rounds: 300, Repetitions: 2}
	return runCase(t, id, sc, experiment.Options{Seed: seed})
}

func TestReproCase1CooperationEmerges(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := repro(t, 1, 1)
	// Paper: ~97%. Anything below 90% at generation 25 means the
	// dynamics are broken, not merely unconverged.
	if res.FinalCoop.Mean < 0.9 {
		t.Errorf("case 1 cooperation %.3f, want ≥ 0.9 (paper: 0.97)", res.FinalCoop.Mean)
	}
	// Evolution must have improved on the random start.
	if res.CoopMean[0] > 0.5 {
		t.Errorf("generation 0 cooperation %.3f suspiciously high", res.CoopMean[0])
	}
}

func TestReproCase2SelfishMajorityCapsCooperation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := repro(t, 2, 2)
	// Paper: ~19%. Accept a band around it; the ceiling matters most —
	// 30 CSN of 50 participants cannot support high delivery.
	if res.FinalCoop.Mean < 0.10 || res.FinalCoop.Mean > 0.30 {
		t.Errorf("case 2 cooperation %.3f, want ≈ 0.19 (paper)", res.FinalCoop.Mean)
	}
}

func TestReproCase3Table5Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := repro(t, 3, 3)
	// The Table 5 ordering must hold: TE1 > TE2 > TE3 > TE4.
	for ei := 1; ei < 4; ei++ {
		if res.PerEnv[ei].Cooperation.Mean >= res.PerEnv[ei-1].Cooperation.Mean {
			t.Errorf("cooperation not decreasing with CSN count: TE%d %.3f ≥ TE%d %.3f",
				ei+1, res.PerEnv[ei].Cooperation.Mean, ei, res.PerEnv[ei-1].Cooperation.Mean)
		}
	}
	// TE1 ≈ 99%, TE4 ≈ 19-20%.
	if res.PerEnv[0].Cooperation.Mean < 0.9 {
		t.Errorf("TE1 cooperation %.3f, want ≥ 0.9", res.PerEnv[0].Cooperation.Mean)
	}
	if res.PerEnv[3].Cooperation.Mean > 0.35 {
		t.Errorf("TE4 cooperation %.3f, want ≈ 0.2", res.PerEnv[3].Cooperation.Mean)
	}
	// CSN-free paths track cooperation levels (Table 5's near-identity).
	for ei := 1; ei < 4; ei++ {
		diff := res.PerEnv[ei].CSNFree.Mean - res.PerEnv[ei].Cooperation.Mean
		if diff < -0.05 || diff > 0.15 {
			t.Errorf("TE%d CSN-free %.3f vs coop %.3f: should nearly coincide",
				ei+1, res.PerEnv[ei].CSNFree.Mean, res.PerEnv[ei].Cooperation.Mean)
		}
	}
}

func TestReproCase4LongerPathsHurt(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res3 := repro(t, 3, 4)
	res4 := repro(t, 4, 4)
	// The paper's central case-3-vs-4 comparison: longer paths lower
	// cooperation in every CSN environment (TE2-4).
	for ei := 1; ei < 4; ei++ {
		if res4.PerEnv[ei].Cooperation.Mean >= res3.PerEnv[ei].Cooperation.Mean {
			t.Errorf("TE%d: longer paths should hurt: LP %.3f ≥ SP %.3f",
				ei+1, res4.PerEnv[ei].Cooperation.Mean, res3.PerEnv[ei].Cooperation.Mean)
		}
	}
	// And CSN become harder to avoid (fewer CSN-free paths).
	for ei := 1; ei < 4; ei++ {
		if res4.PerEnv[ei].CSNFree.Mean >= res3.PerEnv[ei].CSNFree.Mean {
			t.Errorf("TE%d: CSN-free paths should shrink under LP: %.3f ≥ %.3f",
				ei+1, res4.PerEnv[ei].CSNFree.Mean, res3.PerEnv[ei].CSNFree.Mean)
		}
	}
}

func TestReproTable6RequestShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := repro(t, 3, 5)
	accN, rejNPn, _ := res.FromNormal.Fractions()
	accC, rejNPc, _ := res.FromCSN.Fractions()
	// Paper Table 6: ~77% of requests from normal players accepted, only
	// ~4% of requests from CSN; normal players reject CSN requests en
	// masse but almost never each other's.
	if accN < 0.6 {
		t.Errorf("normal-request acceptance %.3f, want ≥ 0.6 (paper 0.77)", accN)
	}
	if accC > 0.15 {
		t.Errorf("CSN-request acceptance %.3f, want ≤ 0.15 (paper 0.04)", accC)
	}
	if rejNPc < rejNPn {
		t.Errorf("normals should reject CSN (%.3f) more than each other (%.3f)", rejNPc, rejNPn)
	}
}

func TestReproTables7to9StrategyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := repro(t, 3, 6)
	// §6.3: the last bit is forward — "new nodes can easily join".
	if got := res.Census.UnknownForwardFraction(); got < 0.8 {
		t.Errorf("unknown-forward share %.3f, want ≥ 0.8", got)
	}
	// Trust 3's dominant sub-strategy is "111 — always forward" (99%).
	subs := res.Census.SubStrategies(Trust3, 0)
	if len(subs) == 0 || subs[0].Pattern != "111" || subs[0].Fraction < 0.8 {
		t.Errorf("trust-3 sub-strategies = %+v, want 111 dominating", subs)
	}
	// Trust 0 must be far less forgiving than trust 3.
	coop0 := 0.0
	for _, e := range res.Census.SubStrategies(Trust0, 0) {
		ones := 0
		for _, ch := range e.Pattern {
			if ch == '1' {
				ones++
			}
		}
		coop0 += e.Fraction * float64(ones) / 3
	}
	if coop0 > 0.5 {
		t.Errorf("trust-0 forwarding share %.3f, want well below trust 3", coop0)
	}
}
