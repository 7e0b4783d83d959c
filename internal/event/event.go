// Package event defines the unified job event model. Every long-running
// workload — serial and island evolution, scenario batches, baseline
// mixes, IPDRP, leagues — reports mid-flight progress only as a stream of
// Event values. The engines (internal/core, internal/island,
// internal/ipdrp, and the internal/experiment batch layer) build these
// events themselves and hand each one to the emit function their run
// entry takes; the root package re-exports every type here under the same
// name. An Event is a tagged union: Kind says which of the payload
// pointers is set. Events are JSON-serializable with a deterministic
// encoding (no timestamps, stable field order), which is what lets the
// adhocd service stream NDJSON that byte-compares at a fixed seed.
package event

// Kind tags which payload an Event carries.
type Kind string

// The event kinds.
const (
	// KindGeneration: one serial-engine generation finished evaluating
	// (Event.Generation is set).
	KindGeneration Kind = "generation"
	// KindIslands: one island-model generation finished evaluating
	// (Event.Islands is set).
	KindIslands Kind = "islands"
	// KindReplicate: one replicate of a multi-replicate workload finished
	// (Event.Replicate is set).
	KindReplicate Kind = "replicate"
	// KindChurn: a dynamics barrier perturbed a replicate (Event.Churn is
	// set).
	KindChurn Kind = "churn"
	// KindCheckpoint: a champion checkpoint fired in a replicate
	// (Event.Checkpoint is set). Emitted only by scenarios that enable
	// checkpoints; the session's champion archive consumes these.
	KindCheckpoint Kind = "checkpoint"
	// KindDone: terminal event, always exactly one and always last
	// (Event.Done is set).
	KindDone Kind = "done"
)

// Event is one observation from a running job. Seq numbers events from 0
// in emission order within the job; Job is the emitting job's ID. Both
// are stamped by the job's hub, not the engine. Exactly one payload
// pointer is non-nil, selected by Kind.
type Event struct {
	Seq  int    `json:"seq"`
	Job  string `json:"job"`
	Kind Kind   `json:"kind"`

	Generation *Generation `json:"generation,omitempty"`
	Islands    *Islands    `json:"islands,omitempty"`
	Replicate  *Replicate  `json:"replicate,omitempty"`
	Churn      *Churn      `json:"churn,omitempty"`
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
	Done       *Done       `json:"done,omitempty"`
}

// Generation is the per-generation snapshot of one serial replicate:
// the §6.2 cooperation observables and the population's fitness moments.
// Scenario is the index of the scenario (or sweep point) within the job's
// batch and Rep the replicate within it; both are 0 for single-run jobs
// (EvolveSpec, IPDRPSpec).
type Generation struct {
	Scenario    int     `json:"scenario"`
	Rep         int     `json:"rep"`
	Gen         int     `json:"gen"`
	Coop        float64 `json:"coop"`
	MeanEnvCoop float64 `json:"mean_env_coop"`
	BestFit     float64 `json:"best_fit"`
	MeanFit     float64 `json:"mean_fit"`
	Diversity   float64 `json:"diversity"`
}

// Islands is the per-generation snapshot of one island-model replicate:
// run-wide cooperation plus each island's convergence point, in island
// order.
type Islands struct {
	Scenario    int           `json:"scenario"`
	Rep         int           `json:"rep"`
	Gen         int           `json:"gen"`
	Coop        float64       `json:"coop"`
	MeanEnvCoop float64       `json:"mean_env_coop"`
	PerIsland   []IslandPoint `json:"per_island"`
}

// IslandPoint is one island's fitness/diversity snapshot inside an
// Islands event.
type IslandPoint struct {
	BestFit   float64 `json:"best_fit"`
	MeanFit   float64 `json:"mean_fit"`
	Diversity float64 `json:"diversity"`
}

// Replicate reports replicate completion: Done of Total replicate units
// of the whole batch have finished.
type Replicate struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Churn reports that a dynamics barrier perturbed a replicate after
// reproducing generation Gen (population churn and/or landscape
// rewiring). An island-model replicate reports each barrier once.
type Churn struct {
	Scenario int `json:"scenario"`
	Rep      int `json:"rep"`
	Gen      int `json:"gen"`
}

// Checkpoint reports a champion checkpoint: the best genome of generation
// Gen in one replicate, with its fitness context and the replicate's
// master seed (the replay provenance a hall-of-fame archive stores).
// Emitted only when the workload enables checkpoints.
type Checkpoint struct {
	Scenario int     `json:"scenario"`
	Rep      int     `json:"rep"`
	Gen      int     `json:"gen"`
	Seed     uint64  `json:"seed"`
	Genome   string  `json:"genome"`
	Fitness  float64 `json:"fitness"`
	MeanFit  float64 `json:"mean_fit"`
	Coop     float64 `json:"coop"`
}

// Done is the terminal event of every job: the final state and, for
// failed jobs, the error text.
type Done struct {
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
}

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states. A job is terminal exactly when its state is
// JobDone, JobFailed, or JobCancelled.
const (
	// JobQueued: submitted, waiting for a session job slot.
	JobQueued JobState = "queued"
	// JobRunning: holding a job slot, work in progress.
	JobRunning JobState = "running"
	// JobDone: finished successfully; the job's result holds the outcome.
	JobDone JobState = "done"
	// JobFailed: finished with a non-cancellation error.
	JobFailed JobState = "failed"
	// JobCancelled: stopped cooperatively at a generation barrier (or
	// while still queued) by context cancellation.
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}
