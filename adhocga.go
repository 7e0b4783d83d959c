package adhocga

import (
	"adhocga/internal/baselines"
	"adhocga/internal/bitstring"
	"adhocga/internal/core"
	"adhocga/internal/dynamics"
	"adhocga/internal/experiment"
	"adhocga/internal/ga"
	"adhocga/internal/game"
	"adhocga/internal/ipdrp"
	"adhocga/internal/island"
	"adhocga/internal/league"
	"adhocga/internal/network"
	"adhocga/internal/scenario"
	"adhocga/internal/strategy"
	"adhocga/internal/tournament"
)

// Strategy is the paper's 13-bit forwarding strategy (§3.3): twelve
// (trust, activity) decisions plus an unknown-node decision.
type Strategy = strategy.Strategy

// TrustLevel is the four-level trust scale of §3.1.
type TrustLevel = strategy.TrustLevel

// ActivityLevel is the three-level activity scale of §3.2.
type ActivityLevel = strategy.ActivityLevel

// Decision is a forward/discard decision.
type Decision = strategy.Decision

// Decision and level constants re-exported for callers of Strategy.Decide.
const (
	Forward = strategy.Forward
	Discard = strategy.Discard

	Trust0 = strategy.Trust0
	Trust1 = strategy.Trust1
	Trust2 = strategy.Trust2
	Trust3 = strategy.Trust3

	ActivityLow    = strategy.ActivityLow
	ActivityMedium = strategy.ActivityMedium
	ActivityHigh   = strategy.ActivityHigh
)

// Genome is a strategy genome: the 13-bit vector of §3.3 (Fig 1c) the
// genetic algorithm evolves.
type Genome = bitstring.Bits

// Individual pairs a genome with the fitness measured for it (eq. 1).
type Individual = ga.Individual

// NewStrategy wraps a 13-bit genome as a Strategy. The strategy shares the
// genome's storage; Clone first if the genome keeps evolving.
func NewStrategy(g Genome) Strategy { return strategy.New(g) }

// ParseStrategy decodes the paper's strategy notation, with or without
// grouping spaces: "010 101 101 111 1" or "0101011011111".
func ParseStrategy(s string) (Strategy, error) { return strategy.Parse(s) }

// Environment is one tournament environment: a name and a CSN count
// (Table 1).
type Environment = tournament.Environment

// PaperEnvironments returns TE1–TE4 from Table 1.
func PaperEnvironments() []Environment { return tournament.PaperEnvironments() }

// PathMode bundles the hop-count and alternate-path distributions of §6.1.
type PathMode = network.PathMode

// ShorterPaths returns the SP path mode (Table 2, left).
func ShorterPaths() PathMode { return network.ShorterPaths() }

// EvolutionConfig parameterizes one evolutionary run; see
// DefaultEvolutionConfig and the core package for field semantics.
type EvolutionConfig = core.Config

// PopulationStats summarizes a generation's fitness distribution and
// genome diversity (EvolutionResult.FinalFitness).
type PopulationStats = ga.PopulationStats

// EvolutionResult holds a run's cooperation history and final population.
type EvolutionResult = core.Result

// DefaultEvolutionConfig returns the paper's §6.1 parameterization (N=100,
// T=50, R=300, 500 generations) for the given environments and path mode.
// Scale Generations and Eval.Tournament.Rounds down for quick runs.
func DefaultEvolutionConfig(envs []Environment, mode PathMode, seed uint64) EvolutionConfig {
	return core.PaperConfig(envs, mode, seed)
}

// IslandConfig parameterizes the island-model evolution engine: the
// population of EvolutionConfig is sharded into Count subpopulations
// evolved concurrently, with periodic migration of elite genomes over a
// pluggable topology. See the island package docs for the determinism
// contract.
type IslandConfig = island.Config

// IslandResult is the outcome of an island-model run: the aggregate view
// in the serial Result shape plus per-island convergence traces and the
// cross-island champion.
type IslandResult = island.Result

// IslandTrace is one island's per-generation convergence history.
type IslandTrace = island.Trace

// IslandTopology selects which islands exchange migrants.
type IslandTopology = island.Topology

// IslandReplacement selects which residents incoming migrants evict.
type IslandReplacement = island.Replacement

// Migration topologies and replacement policies for IslandConfig.
const (
	TopologyRing           = island.Ring
	TopologyFullyConnected = island.FullyConnected
	TopologyRandomPairs    = island.RandomPairs

	ReplaceWorst  = island.ReplaceWorst
	ReplaceRandom = island.ReplaceRandom
)

// DynamicsConfig parameterizes the environment-perturbation layer
// (internal/dynamics): population churn with naive immigrants and
// identity turnover, mobility-driven route-length drift, and a cohort of
// Byzantine adversaries (free-riders, gossip liars, on-off attackers)
// seated in every tournament. Attach it to EvolutionConfig.Dynamics; a
// nil or all-zero configuration keeps the run bit-identical to the
// static reproduction.
type DynamicsConfig = dynamics.Config

// NodeAdversary tags a Byzantine player's behavior.
type NodeAdversary = game.Adversary

// Byzantine behaviors for DynamicsConfig cohorts.
const (
	AdversaryNone      = game.AdvNone
	AdversaryFreeRider = game.AdvFreeRider
	AdversaryLiar      = game.AdvLiar
	AdversaryOnOff     = game.AdvOnOff
)

// RecoverySummary aggregates cooperation dips and recovery times after
// churn barriers; CaseResult.Recovery carries one for churning scenarios.
type RecoverySummary = experiment.RecoverySummary

// Scale selects the computational budget of a reproduction run.
type Scale = experiment.Scale

// Standard scales: the paper's full budget, a minutes-scale default, and a
// seconds-scale smoke setting.
var (
	ScaleSmoke   = experiment.Smoke
	ScaleDefault = experiment.Default
	ScalePaper   = experiment.PaperScale
)

// CaseResult aggregates one evaluation case over all replications.
type CaseResult = experiment.CaseResult

// RunOptions tune a scenario batch (Session.RunScenarios, ScenariosSpec):
// its seed and parallelism. The batch runs on the session's pool and
// reports through the job's events.
type RunOptions = experiment.Options

// ScenarioSpec declaratively describes one evolutionary experiment:
// environments, path mode, tournament/GA parameters, scale, and seed
// policy. Specs are JSON-serializable; zero-valued fields fall back to
// the paper's §6.1 parameterization and the run's Scale.
type ScenarioSpec = scenario.Spec

// ScenarioEnv is one environment of a scenario (name + CSN count).
type ScenarioEnv = scenario.EnvSpec

// ScenarioGA overrides genetic-algorithm parameters in a scenario.
type ScenarioGA = scenario.GASpec

// ScenarioIslands configures the island-model engine in a scenario (the
// JSON "islands" block).
type ScenarioIslands = scenario.IslandSpec

// ScenarioDynamics configures the environment-perturbation layer in a
// scenario (the JSON "dynamics" block).
type ScenarioDynamics = scenario.DynamicsSpec

// ScenarioGossip enables second-hand reputation exchange in a scenario
// (the JSON "gossip" block).
type ScenarioGossip = scenario.GossipSpec

// ScenarioFamily is a named generator of related scenarios from the
// built-in registry (table4, csn-grid, tournament-size, mixed-env).
type ScenarioFamily = scenario.Family

// ScenarioRun pairs a scenario with the fallback master seed for its
// replicate streams.
type ScenarioRun = experiment.ScenarioRun

// ScenarioFamilyByName resolves a registered scenario family.
func ScenarioFamilyByName(name string) (ScenarioFamily, error) { return scenario.FamilyByName(name) }

// Profile is a named fixed (non-evolved) strategy for baseline mixes.
type Profile = baselines.Profile

// MixConfig describes a fixed-population tournament; MixResult reports its
// outcome.
type (
	MixConfig = baselines.MixConfig
	MixResult = baselines.MixResult
	MixGroup  = baselines.Group
)

// Built-in baseline profiles.
var (
	ProfileAllCooperate    = baselines.AllCooperate
	ProfileAllDefect       = baselines.AllDefect
	ProfileTrustThreshold1 = baselines.TrustThreshold1
	ProfileTrustThreshold2 = baselines.TrustThreshold2
)

// GameConfig holds the game rules (payoffs, trust table, activity band).
type GameConfig = game.Config

// DefaultGameConfig returns the paper's rules: the Fig 2a payoff tables,
// the Fig 1b trust lookup, unknown-node trust 1, ±20% activity band.
func DefaultGameConfig() GameConfig { return game.DefaultConfig() }

// IPDRPConfig parameterizes the Iterated Prisoner's Dilemma under Random
// Pairing substrate [12] that the paper's game model generalizes.
type IPDRPConfig = ipdrp.Config

// IPDRPResult holds an IPDRP run's cooperation trajectory.
type IPDRPResult = ipdrp.Result

// DefaultIPDRPConfig mirrors the scale of Namikawa and Ishibuchi's
// experiments (population 100, roulette selection).
func DefaultIPDRPConfig(seed uint64) IPDRPConfig { return ipdrp.DefaultConfig(seed) }

// Champion is one hall-of-fame record: a checkpointed best-of-generation
// strategy with its provenance (job, scenario, replicate seed) and
// classification metadata.
type Champion = league.Champion

// ChampionArchive is the durable hall of fame champions are checkpointed
// into (WithChampionArchive) and leagues seat from. Back it with
// OpenChampionArchive for durability or NewChampionArchive for memory.
type ChampionArchive = league.Archive

// NewChampionArchive returns an in-memory champion archive.
func NewChampionArchive() *ChampionArchive { return league.NewMemArchive() }

// OpenChampionArchive opens (or creates) a file-backed champion archive
// in dir, persisted through the jobstore WAL machinery.
func OpenChampionArchive(dir string) (*ChampionArchive, error) { return league.OpenDir(dir) }

// LeagueTable is a league outcome: standings sorted best-first plus the
// head-to-head matrix. Deterministic JSON at a fixed seed.
type LeagueTable = league.Table

// LeagueStanding is one seat's row in a LeagueTable.
type LeagueStanding = league.Standing
