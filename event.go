package adhocga

import (
	"fmt"
	"io"

	"adhocga/internal/event"
	"adhocga/internal/textplot"
)

// The unified job event model lives in internal/event; this file
// re-exports it under the root names. Every long-running workload reports
// mid-flight progress only as a stream of Event values on its Job handle.
// Each engine's run entry takes an emit function and builds these events
// itself: the serial and island engines emit generation (or islands),
// churn and checkpoint events, IPDRP emits generation events, and the
// batch layer stamps each one with its scenario and replicate and adds a
// replicate event per finished unit.
// A spec's run hands the engine the job's emit, so a job reports the same
// events whether it arrives via Submit, Session.RunScenarios, or the HTTP
// service, and no engine config carries an observation hook a caller
// could set. Delivery runs through the job's streaming hub (hub.go): a
// bounded ring plus compacted snapshot fanned out per subscriber, not an
// unbounded log.

// EventKind tags which payload an Event carries.
type EventKind = event.Kind

// The event kinds; see internal/event for what each payload carries.
const (
	KindGeneration = event.KindGeneration
	KindIslands    = event.KindIslands
	KindReplicate  = event.KindReplicate
	KindChurn      = event.KindChurn
	KindCheckpoint = event.KindCheckpoint
	KindDone       = event.KindDone
)

// Event is one observation from a running Job. Seq numbers events from 0
// in emission order within the job; Job is the emitting job's ID. Exactly
// one payload pointer is non-nil, selected by Kind.
type Event = event.Event

// The event payloads, one per EventKind except the terminal DoneEvent's
// JobState (job.go).
type (
	// GenerationEvent is one serial replicate's per-generation snapshot.
	GenerationEvent = event.Generation
	// IslandsEvent is one island-model replicate's per-generation
	// snapshot.
	IslandsEvent = event.Islands
	// IslandPoint is one island's fitness/diversity point in an
	// IslandsEvent.
	IslandPoint = event.IslandPoint
	// ReplicateEvent reports replicate completion across the batch.
	ReplicateEvent = event.Replicate
	// ChurnEvent reports that a dynamics barrier perturbed a replicate.
	ChurnEvent = event.Churn
	// CheckpointEvent reports a champion checkpoint with its provenance.
	CheckpointEvent = event.Checkpoint
	// DoneEvent is every job's terminal event.
	DoneEvent = event.Done
)

// PartialSeries folds a job's generation events into per-scenario mean
// cooperation series — the tool for emitting a meaningful partial result
// when a job is cancelled mid-flight (SIGINT in the CLIs): feed it every
// event as it streams, then RenderInterrupted for whatever generations
// completed. Not safe for concurrent use; feed it from a single event
// consumer.
type PartialSeries struct {
	// per scenario: per generation: sum and count of cooperation levels
	// over the replicates observed so far.
	sums    map[int]map[int]meanCell
	lastGen int
}

type meanCell struct {
	coop float64
	n    int
}

// Add folds one event; non-generation events are ignored.
func (p *PartialSeries) Add(e Event) {
	var scen, gen int
	var coop float64
	switch e.Kind {
	case KindGeneration:
		scen, gen, coop = e.Generation.Scenario, e.Generation.Gen, e.Generation.Coop
	case KindIslands:
		scen, gen, coop = e.Islands.Scenario, e.Islands.Gen, e.Islands.Coop
	default:
		return
	}
	if p.sums == nil {
		p.sums = map[int]map[int]meanCell{}
	}
	m := p.sums[scen]
	if m == nil {
		m = map[int]meanCell{}
		p.sums[scen] = m
	}
	c := m[gen]
	c.coop += coop
	c.n++
	m[gen] = c
	if gen > p.lastGen {
		p.lastGen = gen
	}
}

// lastGeneration returns the highest generation index observed across all
// scenarios (0 when no generation event arrived).
func (p *PartialSeries) lastGeneration() int { return p.lastGen }

// empty reports whether no generation events were folded.
func (p *PartialSeries) empty() bool { return len(p.sums) == 0 }

// RenderInterrupted writes the standard interruption report for a
// cancelled job: an "interrupted at generation N" marker followed by one
// clearly-marked partial cooperation chart per named scenario that
// completed at least one generation. names[i] labels scenario index i of
// the job's batch. Both CLIs call this on SIGINT so a cancelled run
// still emits the series streamed so far instead of dying mid-write.
func RenderInterrupted(w io.Writer, p *PartialSeries, names []string) {
	if p.empty() {
		fmt.Fprintln(w, "interrupted before any generation completed — no partial series to report")
		return
	}
	fmt.Fprintf(w, "interrupted at generation %d — partial cooperation series (mean over replicates observed so far):\n", p.lastGeneration())
	for i, name := range names {
		series := p.series(i)
		if series == nil {
			fmt.Fprintf(w, "%s: no completed generations\n", name)
			continue
		}
		chart := textplot.Chart{
			Title: fmt.Sprintf("%s — PARTIAL cooperation, interrupted at generation %d", name, len(series)-1),
			YMin:  0, YMax: 1, FixedY: true,
		}
		chart.AddSeries("cooperation", series)
		fmt.Fprintln(w, chart.Render())
	}
}

// series returns scenario scen's per-generation mean cooperation over the
// replicates observed, from generation 0 through the last generation any
// of them reached. Gaps (generations no replicate reported) carry the
// previous value forward so the series is renderable.
func (p *PartialSeries) series(scen int) []float64 {
	m := p.sums[scen]
	if len(m) == 0 {
		return nil
	}
	last := 0
	for g := range m {
		if g > last {
			last = g
		}
	}
	out := make([]float64, last+1)
	prev := 0.0
	for g := 0; g <= last; g++ {
		if c, ok := m[g]; ok && c.n > 0 {
			prev = c.coop / float64(c.n)
		}
		out[g] = prev
	}
	return out
}
