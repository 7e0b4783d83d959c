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
	"adhocga/internal/island"
	"adhocga/internal/metrics"
	"adhocga/internal/network"
	"adhocga/internal/runner"
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

// Cases returns the four evaluation cases of Table 4:
//
//	case 1: the CSN-free environment TE1, shorter paths
//	case 2: the 30-CSN environment TE4 ("60% of the population"), shorter paths
//	case 3: all environments TE1–TE4, shorter paths
//	case 4: all environments TE1–TE4, longer paths
//
// The definitions live in the scenario registry (scenario.Table4) so the
// spec and Case forms cannot drift apart.
func Cases() []Case {
	specs := scenario.Table4()
	cases := make([]Case, len(specs))
	for i, s := range specs {
		mode, err := s.Mode()
		if err != nil {
			panic(fmt.Sprintf("experiment: registry spec %q: %v", s.Name, err))
		}
		cases[i] = Case{ID: s.ID, Name: s.Name, Environments: s.Envs(), Mode: mode}
	}
	return cases
}

// CaseByID returns the Table 4 case with the given id (1–4).
func CaseByID(id int) (Case, error) {
	for _, c := range Cases() {
		if c.ID == id {
			return c, nil
		}
	}
	return Case{}, fmt.Errorf("experiment: no evaluation case %d", id)
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
	Parallelism int // worker pool size; 0 means GOMAXPROCS, negative is an error
	// OnReplicate, when non-nil, is called as each replicate finishes
	// (from multiple goroutines) with the number completed so far.
	OnReplicate func(done, total int)

	// Pool, when non-nil, runs the batch's replicate units on the given
	// shared execution capacity instead of transient per-call workers, so
	// concurrent batches — e.g. several jobs of one Session — stay jointly
	// bounded by the pool size. Parallelism still caps this batch's share.
	// Scheduling only; results are identical either way.
	Pool *runner.Pool

	// The observation hooks below stream per-replicate progress out of a
	// running batch. They belong to the Session/Job event layer: a
	// ScenariosSpec fills them with its emit path, and one that arrives
	// with any of them (or Pool) set fails its job — callers observe
	// jobs through Job.Events. Each may be called concurrently from pool
	// workers; none consumes engine randomness, so setting them never
	// changes results. scenario is the index of the scenario in the
	// batch, rep the replicate index within it.

	// OnGeneration receives every serial replicate's per-generation
	// snapshot right after evaluation.
	OnGeneration func(scenario, rep int, stats core.GenerationStats)
	// OnIslandGeneration receives every island-model replicate's
	// per-generation aggregate and per-island snapshot.
	OnIslandGeneration func(scenario, rep int, stats island.GenerationStats)
	// OnChurn fires after each dynamics barrier that perturbed a
	// replicate, with the generation whose reproduction it followed.
	OnChurn func(scenario, rep, generation int)
	// OnCheckpoint fires at every champion checkpoint of a replicate
	// (serial or island) when the scenario enables them
	// (scenario.Spec.Checkpoints > 0), with the replicate's master seed —
	// the provenance a hall-of-fame archive records.
	OnCheckpoint func(scenario, rep int, seed uint64, cp core.Checkpoint)
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
