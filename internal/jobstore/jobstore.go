// Package jobstore persists the adhocd service's job records so a restart
// does not lose them. A record is the durable identity of one job: its ID,
// the submitted spec JSON, the master seed, its lifecycle state, and —
// once finished — its event count and last event sequence, the result
// summary, a result digest, and (for deterministic jobs within event-log
// retention) the full NDJSON event replay. The service writes each record
// twice: queued when the job is accepted and terminal when it ends.
// Because every job in this codebase is bit-reproducible from (seed,
// spec), that record is enough to resume an interrupted job from scratch
// after a crash and to re-verify a finished one byte-for-byte at any later
// time.
//
// Two backends implement the Store interface:
//
//   - Mem: the in-memory map the pre-durability service effectively was —
//     fast, gone on exit. The default.
//   - File: an append-only write-ahead log of NDJSON-framed records
//     (one checksummed line per update, fsynced on state transitions,
//     compacted in place once garbage dominates) that survives SIGKILL.
//     Memory holds only each record's header and where its line sits in
//     the log; Get reads the payloads back from disk.
//
// Both backends are observationally equivalent over the Store interface;
// a property test drives them through identical random op interleavings
// to prove it.
package jobstore

import (
	"encoding/json"
	"fmt"
	"sync"
)

// States a Record moves through. They mirror adhocga.JobState but are
// redeclared here so the storage layer does not import the engine: a
// record written by one build must be readable by the next.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// TerminalState reports whether state is final — a record in a terminal
// state is never resumed on recovery.
func TerminalState(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// Record is the durable form of one job. Spec is the canonical submit
// request (scenarios JSON plus the resolved scale, seed, and parallelism),
// which together with Seed fully determines the job's output under the
// determinism contract — resuming or verifying a job is re-running exactly
// this document.
type Record struct {
	// ID is the job's external identifier ("job-1", …). IDs are allocated
	// by the service from the store's own sequence so they stay unique
	// across restarts.
	ID string `json:"id"`
	// Kind tags the workload ("scenarios", …).
	Kind string `json:"kind"`
	// Spec is the canonical submit-request JSON the job was built from.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Seed is the master seed the spec ran under (0 = layer defaults).
	Seed uint64 `json:"seed"`
	// State is the job's lifecycle state (State* constants).
	State string `json:"state"`
	// Watermark is the sequence number of the job's last event, set in
	// its terminal record (a log written by an older build may also hold
	// mid-run values). It is not a resume point: recovery re-runs from
	// generation 0 and determinism makes the re-run bit-identical.
	Watermark int `json:"watermark"`
	// Deterministic records whether the job ran at parallelism 1, i.e.
	// whether its event ordering (not just its results) is reproducible
	// and the event log is eligible for byte-compare verification.
	Deterministic bool `json:"deterministic,omitempty"`
	// Events is the total number of events the job emitted, recorded at
	// completion (0 in a queued record; a live job's progress is served
	// from the session, not the store).
	Events int `json:"events,omitempty"`
	// Result is the service's result summary JSON for a done job.
	Result json.RawMessage `json:"result,omitempty"`
	// ResultDigest is the hex SHA-256 of Result — the digest verify
	// compares for every finished job, including ones whose event log
	// outgrew retention.
	ResultDigest string `json:"result_digest,omitempty"`
	// EventLog is the job's full NDJSON event replay, stored only when
	// the job is deterministic, its complete history was still retained
	// by the streaming hub at completion, and it fits the store cap.
	EventLog []byte `json:"event_log,omitempty"`
	// LogDigest is the hex SHA-256 of EventLog (kept even if EventLog
	// itself is dropped for size, so a replay can still be digest-checked).
	LogDigest string `json:"log_digest,omitempty"`
	// Error is the terminal error text for failed/cancelled jobs.
	Error string `json:"error,omitempty"`
}

// clone returns a deep copy so callers can't alias the store's buffers.
func (r Record) clone() Record {
	c := r
	c.Spec = append(json.RawMessage(nil), r.Spec...)
	c.Result = append(json.RawMessage(nil), r.Result...)
	c.EventLog = append([]byte(nil), r.EventLog...)
	return c
}

// header returns r without its Spec, Result and EventLog payloads: the
// part of a record List returns and the file backend keeps in memory.
func (r Record) header() Record {
	r.Spec, r.Result, r.EventLog = nil, nil, nil
	return r
}

// Store is the pluggable job-record persistence interface. All methods are
// safe for concurrent use. Put inserts or replaces the record with the
// same ID; a durable implementation must make Puts that create a record or
// change its State survive a crash before returning (fsync on state
// transitions), while other updates may be buffered. The service issues
// only the former: each record is written queued, then terminal, and a
// recovered job's only write is its terminal one. Get returns the whole
// record, payloads included, in a copy the caller owns. List returns
// every record's header — all fields but Spec, Result and EventLog, which
// are nil — in first-Put order, which is submission order across the
// store's lifetime; a caller that needs a payload calls Get for the
// records it keeps, so listing costs memory per record, not per payload
// byte.
type Store interface {
	Put(Record) error
	Get(id string) (Record, bool, error)
	List() ([]Record, error)
	Delete(id string) error
	// Len returns the number of stored records: a cheap census for
	// metrics collectors, unlike List, which copies every header.
	Len() int
	// Backend names the implementation ("mem", "file") for health
	// reporting.
	Backend() string
	Close() error
}

// Mem is the in-memory Store: a map plus insertion order. The zero value
// is not usable; call NewMem.
type Mem struct {
	mu    sync.Mutex
	recs  map[string]Record
	order []string
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{recs: map[string]Record{}}
}

// Put inserts or replaces the record.
func (m *Mem) Put(r Record) error {
	if r.ID == "" {
		return fmt.Errorf("jobstore: record has no id")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.recs[r.ID]; !ok {
		m.order = append(m.order, r.ID)
	}
	m.recs[r.ID] = r.clone()
	return nil
}

// Get returns the record with the given id.
func (m *Mem) Get(id string) (Record, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.recs[id]
	if !ok {
		return Record{}, false, nil
	}
	return r.clone(), true, nil
}

// List returns every record's header in first-Put order.
func (m *Mem) List() ([]Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, 0, len(m.recs))
	for _, id := range m.order {
		out = append(out, m.recs[id].header())
	}
	return out, nil
}

// Delete removes the record; deleting a missing id is a no-op.
func (m *Mem) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.recs[id]; !ok {
		return nil
	}
	delete(m.recs, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return nil
}

// Len returns the number of stored records.
func (m *Mem) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recs)
}

// Backend returns "mem".
func (m *Mem) Backend() string { return "mem" }

// Close is a no-op.
func (m *Mem) Close() error { return nil }
