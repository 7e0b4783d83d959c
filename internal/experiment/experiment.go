// Package experiment reproduces the paper's evaluation (§6): the four
// evaluation cases of Table 4, run over repeated replications with
// independent seeds, aggregated into the numbers behind Fig 4 and
// Tables 5–9. The cases are declarative scenarios (scenario.Table4), so
// they run like any other batch of specs: through RunScenarios.
//
// Every batch flattens to (scenario × replicate) work units on one
// shared bounded worker pool (internal/runner); each replicate owns an
// engine and a seed derived up front from its scenario's master seed, so
// results are deterministic for given seeds regardless of the parallelism
// level, and identical whether scenarios run alone or batched.
package experiment

import (
	"fmt"

	"adhocga/internal/core"
	"adhocga/internal/metrics"
	"adhocga/internal/network"
	"adhocga/internal/scenario"
	"adhocga/internal/stats"
	"adhocga/internal/strategy"
	"adhocga/internal/tournament"
)

// Scale selects how much of the paper's computational budget to spend. It
// doubles as the default provider for scenario specs that leave their
// generation, round, or repetition counts unset.
type Scale = scenario.Scale

// The three standard scales. Paper is the full §6.1 parameterization
// (500 generations, 300 rounds, 60 repetitions); Default reproduces the
// qualitative shape in minutes; Smoke is for tests and benchmarks.
var (
	Smoke      = Scale{Name: "smoke", Generations: 25, Rounds: 300, Repetitions: 2}
	Default    = Scale{Name: "default", Generations: 120, Rounds: 300, Repetitions: 10}
	PaperScale = Scale{Name: "paper", Generations: 500, Rounds: 300, Repetitions: 60}
)

// ScaleByName resolves a scale preset.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "smoke":
		return Smoke, nil
	case "default":
		return Default, nil
	case "paper":
		return PaperScale, nil
	default:
		return Scale{}, fmt.Errorf("experiment: unknown scale %q (want smoke, default, or paper)", name)
	}
}

// Case is one evaluation case of Table 4.
type Case struct {
	ID           int
	Name         string
	Environments []tournament.Environment
	Mode         network.PathMode
}

// EnvSummary aggregates one environment's final-generation observables
// across replications.
type EnvSummary struct {
	Name        string
	Cooperation stats.Summary
	CSNFree     stats.Summary
}

// CaseResult aggregates one case over all replications.
type CaseResult struct {
	Case  Case
	Scale Scale

	// CoopMean/CoopStd: the Fig 4 curve — overall cooperation level per
	// generation, mean and sample standard deviation across replications.
	CoopMean []float64
	CoopStd  []float64
	// MeanEnvCoopMean is the per-generation unweighted environment mean
	// (identical to CoopMean for single-environment cases).
	MeanEnvCoopMean []float64

	// FinalCoop summarizes the last generation's overall cooperation.
	FinalCoop stats.Summary
	// FinalMeanEnvCoop summarizes the last generation's unweighted
	// environment-mean cooperation (the paper's Fig 4 endpoint for the
	// multi-environment cases).
	FinalMeanEnvCoop stats.Summary

	// PerEnv holds final-generation per-environment summaries (Table 5).
	PerEnv []EnvSummary

	// FromNormal/FromCSN are final-generation request-response counts
	// summed over replications (Table 6); FromByz covers requests sourced
	// by Byzantine adversaries when the dynamics layer seats any.
	FromNormal metrics.ResponseCounts
	FromCSN    metrics.ResponseCounts
	FromByz    metrics.ResponseCounts

	// Census pools the final strategy populations of all replications
	// (Tables 7–9).
	Census *strategy.Census

	// Islands summarizes per-island convergence and migration when the
	// scenario ran on the island-model engine; nil for serial scenarios.
	Islands *IslandSummary

	// TournamentSize is the resolved tournament size the scenario ran at
	// (the paper's T; 50 unless the spec overrode it).
	TournamentSize int
	// Dynamics carries the scenario's resolved dynamics block; nil for
	// static scenarios.
	Dynamics *scenario.DynamicsSpec
	// Recovery summarizes cooperation dips and recovery after churn
	// barriers; nil unless the scenario churns.
	Recovery *RecoverySummary
}

// Options tune a RunScenarios batch.
type Options struct {
	Seed        uint64
	Parallelism int // cap on this batch's share of the pool, island evaluations included; 0 means the whole pool, negative is an error
}

// Aggregate folds one scenario's replicate results into a CaseResult: the
// Fig 4 series, final-generation summaries, per-environment views, request
// counts, and the pooled strategy census.
func Aggregate(c Case, sc Scale, results []*core.Result) *CaseResult {
	out := &CaseResult{Case: c, Scale: sc, Census: strategy.NewCensus()}

	var coopAcc, envMeanAcc stats.SeriesAccumulator
	finalCoop := make([]float64, 0, len(results))
	finalEnvMean := make([]float64, 0, len(results))
	perEnvCoop := make([][]float64, len(c.Environments))
	perEnvCSNFree := make([][]float64, len(c.Environments))

	for _, res := range results {
		coopAcc.AddSeries(res.CoopSeries)
		envMeanAcc.AddSeries(res.MeanEnvCoopSeries)
		finalCoop = append(finalCoop, res.CoopSeries[len(res.CoopSeries)-1])
		finalEnvMean = append(finalEnvMean, res.MeanEnvCoopSeries[len(res.MeanEnvCoopSeries)-1])
		for ei := range res.FinalCollector.Environments() {
			if ei >= len(perEnvCoop) {
				break
			}
			env := &res.FinalCollector.Environments()[ei]
			perEnvCoop[ei] = append(perEnvCoop[ei], env.CooperationLevel())
			perEnvCSNFree[ei] = append(perEnvCSNFree[ei], env.CSNFreeFraction())
		}
		out.FromNormal.Add(res.FinalCollector.FromNormal)
		out.FromCSN.Add(res.FinalCollector.FromCSN)
		out.FromByz.Add(res.FinalCollector.FromByz)
		out.Census.AddAll(res.FinalStrategies)
	}

	out.CoopMean = coopAcc.Mean()
	out.CoopStd = coopAcc.StdDev()
	out.MeanEnvCoopMean = envMeanAcc.Mean()
	out.FinalCoop = stats.Summarize(finalCoop)
	out.FinalMeanEnvCoop = stats.Summarize(finalEnvMean)
	out.PerEnv = make([]EnvSummary, len(c.Environments))
	for ei, env := range c.Environments {
		out.PerEnv[ei] = EnvSummary{
			Name:        env.Name,
			Cooperation: stats.Summarize(perEnvCoop[ei]),
			CSNFree:     stats.Summarize(perEnvCSNFree[ei]),
		}
	}
	return out
}
