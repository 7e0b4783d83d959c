package adhocga

// One benchmark per paper table and figure, plus the
// ablation benches for the design choices the paper motivates but does not
// sweep. Each bench runs the full reproduction pipeline at smoke scale and
// reports the headline measurement as a custom metric, so `go test
// -bench=.` both times the harness and shows the reproduced shape.
//
// Paper-fidelity expectations (asserted in reproduction_test.go):
//
//	Fig 4:  case 1 → ~0.97+, case 2 → ~0.19, case 3 → ~0.53, case 4 → ~0.40
//	Table 5 per-env (case 3): ~0.99/0.66/0.29/0.20

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"adhocga/internal/baselines"
	"adhocga/internal/core"
	"adhocga/internal/experiment"
	"adhocga/internal/ga"
	"adhocga/internal/game"
	"adhocga/internal/ipdrp"
	"adhocga/internal/runner"
	"adhocga/internal/scenario"
	"adhocga/internal/strategy"
	"adhocga/internal/tournament"
)

// benchScale is the per-iteration budget of the reproduction benches:
// enough generations at the paper's R=300 for every case to reach its
// quasi-equilibrium, with a single replicate.
var benchScale = experiment.Scale{Name: "bench", Generations: 25, Rounds: 300, Repetitions: 1}

func benchCase(b *testing.B, id int) *experiment.CaseResult {
	b.Helper()
	var res *experiment.CaseResult
	for i := 0; i < b.N; i++ {
		res = runCase(b, id, benchScale, experiment.Options{Seed: uint64(40 + id), Parallelism: 1})
	}
	return res
}

func reportCoop(b *testing.B, res *experiment.CaseResult) {
	b.Helper()
	final := res.FinalCoop.Mean
	if len(res.Case.Environments) > 1 {
		final = res.FinalMeanEnvCoop.Mean
	}
	b.ReportMetric(final*100, "coop%")
}

// BenchmarkFig4Case1 regenerates the case-1 curve of Figure 4 (CSN-free,
// shorter paths; paper endpoint ≈ 97%).
func BenchmarkFig4Case1(b *testing.B) { reportCoop(b, benchCase(b, 1)) }

// BenchmarkFig4Case2 regenerates the case-2 curve (30 CSN; paper ≈ 19%).
func BenchmarkFig4Case2(b *testing.B) { reportCoop(b, benchCase(b, 2)) }

// BenchmarkFig4Case3 regenerates the case-3 curve (TE1–4, shorter paths;
// paper endpoint ≈ 53% as the environment mean).
func BenchmarkFig4Case3(b *testing.B) { reportCoop(b, benchCase(b, 3)) }

// BenchmarkFig4Case4 regenerates the case-4 curve (TE1–4, longer paths;
// paper endpoint ≈ 38%).
func BenchmarkFig4Case4(b *testing.B) { reportCoop(b, benchCase(b, 4)) }

// BenchmarkTable5 regenerates the per-environment cooperation and CSN-free
// path table for case 3 and reports the four environment levels.
func BenchmarkTable5(b *testing.B) {
	res := benchCase(b, 3)
	_ = experiment.Table5(res, nil).Render()
	for i, env := range res.PerEnv {
		b.ReportMetric(env.Cooperation.Mean*100, []string{"TE1%", "TE2%", "TE3%", "TE4%"}[i])
	}
}

// BenchmarkTable6 regenerates the forwarding-request response table for
// case 3 and reports the acceptance rates by source type.
func BenchmarkTable6(b *testing.B) {
	res := benchCase(b, 3)
	_ = experiment.Table6(res, nil).Render()
	accN, _, _ := res.FromNormal.Fractions()
	accC, _, _ := res.FromCSN.Fractions()
	b.ReportMetric(accN*100, "acceptNP%")
	b.ReportMetric(accC*100, "acceptCSN%")
}

// BenchmarkTable7 regenerates the most-popular-strategies census for
// case 3 and reports the share of strategies that forward for unknowns —
// the §6.3 observation.
func BenchmarkTable7(b *testing.B) {
	res := benchCase(b, 3)
	_ = experiment.Table7(res, nil).Render()
	b.ReportMetric(res.Census.UnknownForwardFraction()*100, "unknownF%")
}

// BenchmarkTable8 regenerates the case-3 sub-strategy distribution and
// reports the frequency of the "111" pattern at trust 3 (paper: 99%).
func BenchmarkTable8(b *testing.B) {
	res := benchCase(b, 3)
	_ = experiment.Table8(res).Render()
	for _, e := range res.Census.SubStrategies(strategy.Trust3, 0) {
		if e.Pattern == "111" {
			b.ReportMetric(e.Fraction*100, "trust3-111%")
		}
	}
}

// BenchmarkTable9 regenerates the case-4 sub-strategy distribution and
// reports the trust-3 "111" frequency.
func BenchmarkTable9(b *testing.B) {
	res := benchCase(b, 4)
	_ = experiment.Table9(res).Render()
	for _, e := range res.Census.SubStrategies(strategy.Trust3, 0) {
		if e.Pattern == "111" {
			b.ReportMetric(e.Fraction*100, "trust3-111%")
		}
	}
}

// runAblation evolves a case-3-shaped experiment with the given config
// mutation and returns the final environment-mean cooperation.
func runAblation(b *testing.B, seed uint64, mutate func(*core.Config)) float64 {
	b.Helper()
	var final float64
	for i := 0; i < b.N; i++ {
		cfg := core.PaperConfig(tournament.PaperEnvironments(), ShorterPaths(), seed)
		cfg.Generations = benchScale.Generations
		cfg.Eval.Tournament.Rounds = benchScale.Rounds
		if mutate != nil {
			mutate(&cfg)
		}
		engine, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := engine.Run(context.Background(), discard)
		if err != nil {
			b.Fatal(err)
		}
		final = res.MeanEnvCoopSeries[len(res.MeanEnvCoopSeries)-1]
	}
	return final
}

// BenchmarkAblationNoReputationSystem (A1) is the paper's §4.2
// counterfactual: selfishness goes unnoticed — decisions cannot see
// reputation (only the unknown-node bit applies) and routes are chosen at
// random. Cooperation collapses because "it would be always better to save
// energy by not participating to the packet forwarding".
func BenchmarkAblationNoReputationSystem(b *testing.B) {
	coop := runAblation(b, 51, func(cfg *core.Config) {
		cfg.Eval.Tournament.Game.BlindDecisions = true
		cfg.Eval.Tournament.PathChoice = tournament.RandomPath
	})
	b.ReportMetric(coop*100, "coop%")
}

// BenchmarkAblationFlatDiscardPayoffs (A1b) keeps the reputation system
// but removes the trust-dependent discard pricing (discard always pays the
// maximum). Measures how much of the cooperation is carried by the
// strategic channel (trust-conditioned forwarding and route avoidance)
// rather than by the payoff shaping itself.
func BenchmarkAblationFlatDiscardPayoffs(b *testing.B) {
	coop := runAblation(b, 51, func(cfg *core.Config) {
		// The counterfactual table of §4.2: "If such system was not used,
		// the payoff for selfish behavior (discarding packets) would
		// always be higher than for forwarding."
		cfg.Eval.Tournament.Game.Payoffs = game.PayoffTable{
			SourceSuccess: 5,
			Forward:       [strategy.NumTrustLevels]float64{0.3, 0.5, 1.0, 2.0},
			Discard:       [strategy.NumTrustLevels]float64{3.0, 3.0, 3.0, 3.0},
		}
	})
	b.ReportMetric(coop*100, "coop%")
}

// BenchmarkAblationRandomPathChoice (A3) replaces best-reputation route
// selection with uniform choice, removing the avoidance channel of §3.1.
func BenchmarkAblationRandomPathChoice(b *testing.B) {
	coop := runAblation(b, 53, func(cfg *core.Config) {
		cfg.Eval.Tournament.PathChoice = tournament.RandomPath
	})
	b.ReportMetric(coop*100, "coop%")
}

// BenchmarkAblationRouletteSelection (A4) swaps the paper's tournament
// selection for the roulette selection of [12].
func BenchmarkAblationRouletteSelection(b *testing.B) {
	coop := runAblation(b, 54, func(cfg *core.Config) {
		cfg.GA.Selector = ga.RouletteSelector{}
	})
	b.ReportMetric(coop*100, "coop%")
}

// BenchmarkAblationUnknownTrust0 (A5) prices decisions about unknown
// sources at trust 0 instead of the paper's trust 1.
func BenchmarkAblationUnknownTrust0(b *testing.B) {
	coop := runAblation(b, 55, func(cfg *core.Config) {
		cfg.Eval.Tournament.Game.UnknownTrust = strategy.Trust0
	})
	b.ReportMetric(coop*100, "coop%")
}

// BenchmarkAblationBaseline (A0) is the unmodified case-3 pipeline at the
// same seed family, the reference point for the other ablations.
func BenchmarkAblationBaseline(b *testing.B) {
	coop := runAblation(b, 56, nil)
	b.ReportMetric(coop*100, "coop%")
}

// BenchmarkAblationGossip (A6) enables CORE-style second-hand reputation
// exchange (an extension beyond the paper's first-hand-only mechanism) and
// measures its effect on the evolved cooperation level.
func BenchmarkAblationGossip(b *testing.B) {
	coop := runAblation(b, 56, func(cfg *core.Config) {
		cfg.Eval.Tournament.GossipInterval = 10
		cfg.Eval.Tournament.GossipWeight = 0.25
		cfg.Eval.Tournament.GossipMinRate = 0.5
	})
	b.ReportMetric(coop*100, "coop%")
}

// BenchmarkAblationElitism (A8) adds 2-elite preservation to the paper's
// elitism-free GA.
func BenchmarkAblationElitism(b *testing.B) {
	coop := runAblation(b, 56, func(cfg *core.Config) {
		cfg.GA.Elitism = 2
	})
	b.ReportMetric(coop*100, "coop%")
}

// csnRuns is a CSN sweep as a scenario batch: one single-environment,
// shorter-path spec per selfish-node count, each on its own stream derived
// from the batch's Options.Seed.
func csnRuns(counts ...int) []experiment.ScenarioRun {
	runs := make([]experiment.ScenarioRun, len(counts))
	for i, csn := range counts {
		runs[i] = experiment.ScenarioRun{Spec: scenario.Spec{
			Name:         fmt.Sprintf("bench CSN=%d", csn),
			Environments: []scenario.EnvSpec{{CSN: csn}},
		}}
	}
	return runs
}

// runBatch runs a scenario batch on a fresh pool of the default size and
// discards its events: the bare batch layer, without a Session.
func runBatch(runs []experiment.ScenarioRun, sc experiment.Scale, opts experiment.Options) ([]*experiment.CaseResult, error) {
	return experiment.RunScenarios(context.Background(), runner.NewPool(0), runs, sc, opts, discard)
}

// BenchmarkCSNSweep traces evolved cooperation against the selfish-node
// count — the curve the paper samples at 0/10/25/30 (extension).
func BenchmarkCSNSweep(b *testing.B) {
	sc := experiment.Scale{Name: "bench", Generations: 20, Rounds: 300, Repetitions: 1}
	counts := []int{0, 10, 20, 30, 40}
	var points []*experiment.CaseResult
	for i := 0; i < b.N; i++ {
		var err error
		points, err = runBatch(csnRuns(counts...), sc, experiment.Options{Seed: 59})
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, p := range points {
		b.ReportMetric(p.FinalCoop.Mean*100, fmt.Sprintf("csn%d%%", counts[i]))
	}
}

// sweepThroughputScale keeps replicates well below the core count so the
// difference between barriered and shared scheduling is visible: with a
// per-point pool, at most Repetitions workers are ever busy.
var sweepThroughputScale = experiment.Scale{Name: "bench-sweep", Generations: 4, Rounds: 100, Repetitions: 2}

var sweepThroughputCounts = []int{0, 5, 10, 15, 20, 25, 30, 35}

// BenchmarkSweepThroughput measures a multi-point CSN sweep on the shared
// work-stealing pool: all (point × replicate) units sit in one queue, so
// workers cross point boundaries and every core stays busy for the whole
// sweep. Compare units/s against BenchmarkSweepThroughputBarrier.
func BenchmarkSweepThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runBatch(csnRuns(sweepThroughputCounts...),
			sweepThroughputScale, experiment.Options{Seed: 60}); err != nil {
			b.Fatal(err)
		}
	}
	units := float64(b.N * len(sweepThroughputCounts) * sweepThroughputScale.Repetitions)
	b.ReportMetric(units/b.Elapsed().Seconds(), "units/s")
}

// BenchmarkSweepThroughputBarrier replays the pre-runner sweep schedule:
// one batch per sweep point with a barrier in between, so only
// Repetitions cores are busy at a time and the rest idle.
func BenchmarkSweepThroughputBarrier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for pi, run := range csnRuns(sweepThroughputCounts...) {
			run.Seed = uint64(60 + pi)
			if _, err := runBatch([]experiment.ScenarioRun{run},
				sweepThroughputScale, experiment.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	units := float64(b.N * len(sweepThroughputCounts) * sweepThroughputScale.Repetitions)
	b.ReportMetric(units/b.Elapsed().Seconds(), "units/s")
}

// BenchmarkSessionThroughput compares the same scenario batch through the
// Session/Job API (Submit + event stream drained) and a bare
// experiment.RunScenarios call, the Session-overhead reference ("legacy").
// The two run identical work over the same worker discipline, so the
// submit/legacy units/s gap is exactly the API's overhead: job bookkeeping
// plus one event per generation and replicate. Measured locally the gap is
// under 2% (the event path is append + channel signal, far off the
// tournament hot path); CI gates both series against ci/bench_baseline.txt
// and records them in BENCH_hotpath.json.
func BenchmarkSessionThroughput(b *testing.B) {
	units := float64(len(sweepThroughputCounts) * sweepThroughputScale.Repetitions)
	b.Run("submit", func(b *testing.B) {
		// NewSession raises GOMAXPROCS to keep a P beyond its pool. Put
		// it back, so every -count repetition (and "legacy" after them)
		// starts from the -cpu value with a pool of that size.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		session := NewSession()
		defer session.Close()
		for i := 0; i < b.N; i++ {
			job, err := session.Submit(context.Background(), ScenariosSpec{
				Runs:     csnRuns(sweepThroughputCounts...),
				Defaults: sweepThroughputScale,
				Opts:     RunOptions{Seed: 61},
			})
			if err != nil {
				b.Fatal(err)
			}
			for range job.Events() { // drain the full stream, as a client would
			}
			if err := job.Wait(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*units/b.Elapsed().Seconds(), "units/s")
	})
	b.Run("legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runBatch(csnRuns(sweepThroughputCounts...),
				sweepThroughputScale, experiment.Options{Seed: 61}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*units/b.Elapsed().Seconds(), "units/s")
	})
}

// BenchmarkIPDRP evolves the IPDRP substrate [12] and reports the late
// cooperation rate (defection dominates under random pairing).
func BenchmarkIPDRP(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		cfg := ipdrp.DefaultConfig(57)
		cfg.Generations = 50
		res, err := ipdrp.Run(context.Background(), cfg, discard)
		if err != nil {
			b.Fatal(err)
		}
		last = res.CoopSeries[len(res.CoopSeries)-1]
	}
	b.ReportMetric(last*100, "coop%")
}

// BenchmarkPathraterComparison reproduces the §2 watchdog/pathrater
// observation: reputation-rated route choice alone (no punishment) lifts
// throughput in a population with selfish nodes.
func BenchmarkPathraterComparison(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		var err error
		with, without, err = benchPathrater()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(with*100, "rated%")
	b.ReportMetric(without*100, "random%")
}

// benchPathrater runs the §2 watchdog/pathrater scenario: an all-forward
// population with CSN, once with reputation-rated path choice and once
// with random path choice, and returns both cooperation levels.
func benchPathrater() (float64, float64, error) {
	cfg := baselines.MixConfig{
		Groups: []baselines.Group{{Profile: baselines.AllCooperate, Count: 30}},
		CSN:    12,
		Rounds: 300,
		Mode:   ShorterPaths(),
		Game:   game.DefaultConfig(),
		Seed:   58,
	}
	rated, err := baselines.RunMix(cfg)
	if err != nil {
		return 0, 0, err
	}
	cfg.PathChoice = tournament.RandomPath
	random, err := baselines.RunMix(cfg)
	if err != nil {
		return 0, 0, err
	}
	return rated.Cooperation, random.Cooperation, nil
}
