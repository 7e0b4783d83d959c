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
	"testing"

	"adhocga/internal/baselines"
	"adhocga/internal/bitstring"
	"adhocga/internal/core"
	"adhocga/internal/experiment"
	"adhocga/internal/ga"
	"adhocga/internal/game"
	"adhocga/internal/ipdrp"
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
	c, err := experiment.CaseByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var res *experiment.CaseResult
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunCase(c, benchScale, experiment.Options{Seed: uint64(40 + id), Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
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
		res, err := engine.Run()
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
		cfg.Eval.Tournament.Game.Payoffs = game.NoReputationPayoffs()
	})
	b.ReportMetric(coop*100, "coop%")
}

// BenchmarkAblationTrustOnlyStrategy (A2) collapses the activity dimension
// (5-bit trust-only strategies) to measure what §3.2 contributes.
func BenchmarkAblationTrustOnlyStrategy(b *testing.B) {
	coop := runAblation(b, 52, func(cfg *core.Config) {
		cfg.Constraint = core.TrustOnlyConstraint
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
// same seed family, the reference point for A1–A5.
func BenchmarkAblationBaseline(b *testing.B) {
	coop := runAblation(b, 56, nil)
	b.ReportMetric(coop*100, "coop%")
}

// BenchmarkAblationUniformCrossover (A7) swaps the paper's one-point
// crossover for uniform crossover.
func BenchmarkAblationUniformCrossover(b *testing.B) {
	coop := runAblation(b, 56, func(cfg *core.Config) {
		cfg.GA.Crossover = bitstring.UniformCrossover
	})
	b.ReportMetric(coop*100, "coop%")
}

// BenchmarkAblationTwoPointCrossover (A7b) swaps in two-point crossover.
func BenchmarkAblationTwoPointCrossover(b *testing.B) {
	coop := runAblation(b, 56, func(cfg *core.Config) {
		cfg.GA.Crossover = bitstring.RandomTwoPointCrossover
	})
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

// BenchmarkCSNSweep traces evolved cooperation against the selfish-node
// count — the curve the paper samples at 0/10/25/30 (extension).
func BenchmarkCSNSweep(b *testing.B) {
	sc := experiment.Scale{Name: "bench", Generations: 20, Rounds: 300, Repetitions: 1}
	var points []experiment.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiment.CSNSweep([]int{0, 10, 20, 30, 40}, ShorterPaths(), sc, experiment.Options{Seed: 59})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Cooperation.Mean*100, fmt.Sprintf("csn%d%%", p.CSN))
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
		if _, err := experiment.CSNSweep(sweepThroughputCounts, ShorterPaths(),
			sweepThroughputScale, experiment.Options{Seed: 60}); err != nil {
			b.Fatal(err)
		}
	}
	units := float64(b.N * len(sweepThroughputCounts) * sweepThroughputScale.Repetitions)
	b.ReportMetric(units/b.Elapsed().Seconds(), "units/s")
}

// BenchmarkSweepThroughputBarrier replays the pre-runner sweep schedule:
// one worker pool per sweep point with a barrier in between, so only
// Repetitions cores are busy at a time and the rest idle.
func BenchmarkSweepThroughputBarrier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for pi, csn := range sweepThroughputCounts {
			c := experiment.Case{
				Name:         fmt.Sprintf("barrier CSN=%d", csn),
				Environments: []tournament.Environment{{Name: "E", CSN: csn}},
				Mode:         ShorterPaths(),
			}
			if _, err := experiment.RunCase(c, sweepThroughputScale,
				experiment.Options{Seed: uint64(60 + pi)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	units := float64(b.N * len(sweepThroughputCounts) * sweepThroughputScale.Repetitions)
	b.ReportMetric(units/b.Elapsed().Seconds(), "units/s")
}

// sessionThroughputRuns is the workload of the Session-overhead pair: a
// small scenario batch whose replicate units dominate the wall-clock, so
// any Submit/event/pool overhead shows directly in units/s.
func sessionThroughputRuns() []experiment.ScenarioRun {
	runs := make([]experiment.ScenarioRun, len(sweepThroughputCounts))
	for i, csn := range sweepThroughputCounts {
		runs[i] = experiment.ScenarioRun{Spec: scenario.Spec{
			Name:         fmt.Sprintf("bench CSN=%d", csn),
			Environments: []scenario.EnvSpec{{CSN: csn}},
		}}
	}
	return runs
}

// BenchmarkSessionThroughput compares the same scenario batch through the
// Session/Job API (Submit + event stream drained) and the legacy
// RunScenarios facade. The two run identical work over the same worker
// discipline, so the submit/legacy units/s gap is exactly the API's
// overhead: job bookkeeping plus one event per generation and replicate.
// Measured locally the gap is under 2% (the event path is append +
// channel signal, far off the tournament hot path); CI records both
// series in BENCH_api.json so the trajectory accumulates over PRs.
func BenchmarkSessionThroughput(b *testing.B) {
	units := float64(len(sweepThroughputCounts) * sweepThroughputScale.Repetitions)
	b.Run("submit", func(b *testing.B) {
		session := NewSession()
		defer session.Close()
		for i := 0; i < b.N; i++ {
			job, err := session.Submit(context.Background(), ScenariosSpec{
				Runs:     sessionThroughputRuns(),
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
			if _, err := experiment.RunScenarios(sessionThroughputRuns(),
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
		res, err := ipdrp.Run(cfg)
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

func benchPathrater() (float64, float64, error) {
	return baselines.PathraterComparison(30, 12, 300, ShorterPaths(), 58)
}
