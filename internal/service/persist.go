package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"adhocga"
	"adhocga/internal/jobstore"
)

// The persistence glue between live jobs and the jobstore: every
// submission writes a queued record before it is accepted, a watcher
// goroutine follows the job's event stream to keep the record's progress
// watermark fresh and to finalize it at the terminal transition, and
// Recover replays the store at startup — re-submitting unfinished records
// from their recorded (seed, spec) and leaving finished ones to serve
// status, results, and archived event replays without recompute.
//
// Durability contract: state transitions (queued on submit, the terminal
// record with results and digests) are fsynced by the file backend before
// Put returns; watermark-only progress updates are buffered appends. A
// crash can therefore lose at most some reported progress — never a job.
// A crash in the window after the live session reported done but before
// the terminal record landed leaves the record marked running, and
// recovery simply re-runs the job; determinism guarantees the second
// completion is bit-identical to the one the crash discarded.

// newRecord builds the durable identity of a fresh submission.
func newRecord(id string, sp resolvedSubmit) (jobstore.Record, error) {
	spec, err := json.Marshal(sp)
	if err != nil {
		return jobstore.Record{}, fmt.Errorf("encode spec: %w", err)
	}
	return jobstore.Record{
		ID:    id,
		Kind:  "scenarios",
		Spec:  spec,
		Seed:  sp.Seed,
		State: jobstore.StateQueued,
		// Event ordering is reproducible only when replicates run one at
		// a time; that is what makes the event log byte-comparable.
		Deterministic: sp.Parallelism == 1,
	}, nil
}

// specFromRecord reverses newRecord/newLeagueRecord: the stored document
// back into a runnable workload, dispatched by the record's Kind.
func specFromRecord(rec jobstore.Record) (adhocga.JobSpec, error) {
	if len(rec.Spec) == 0 {
		return nil, fmt.Errorf("record %s has no spec", rec.ID)
	}
	switch rec.Kind {
	case "league":
		var sp adhocga.LeagueJobSpec
		if err := json.Unmarshal(rec.Spec, &sp); err != nil {
			return nil, fmt.Errorf("record %s spec: %w", rec.ID, err)
		}
		return sp, nil
	default:
		var sp resolvedSubmit
		if err := json.Unmarshal(rec.Spec, &sp); err != nil {
			return nil, fmt.Errorf("record %s spec: %w", rec.ID, err)
		}
		return sp.jobSpec()
	}
}

// digest is the store's canonical content hash: hex SHA-256.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// eventLogNDJSON renders events exactly as the NDJSON streaming endpoint
// does (json.Encoder, one line per event) — the byte format stored
// records, live streams, and verify replays all share.
func eventLogNDJSON(events []adhocga.Event) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return nil
		}
	}
	return buf.Bytes()
}

// watch follows one live job and keeps its record current: the first
// event flips the record to running, every progressStride events refresh
// the watermark (buffered, cheap), and the terminal transition finalizes
// the record with results, digests, and — when eligible — the full event
// log. The returned channel (also registered in s.watchers) closes once
// the terminal record is in the store, which is how verify waits out the
// race between a job turning done and its record catching up.
func (s *Server) watch(rec jobstore.Record, j *adhocga.Job) {
	done := make(chan struct{})
	s.mu.Lock()
	s.watchers[rec.ID] = done
	s.mu.Unlock()
	go func() {
		defer close(done)
		const progressStride = 64
		sub := j.Subscribe(context.Background(), adhocga.SubscribeOptions{Policy: adhocga.BlockWithDeadline})
		for e := range sub.C {
			if e.Kind == adhocga.KindDone {
				continue
			}
			if rec.State == jobstore.StateQueued || e.Seq-rec.Watermark >= progressStride {
				rec.State = jobstore.StateRunning
				rec.Watermark = e.Seq
				if err := s.store.Put(rec); err != nil {
					s.opts.Logger.Warn("persist progress failed", "job", rec.ID, "error", err)
				}
			}
		}
		// The subscription closed: either the terminal event was
		// delivered or the watcher was evicted — wait out the job either
		// way so the final state is really final.
		_ = j.Wait(context.Background())
		if err := s.store.Put(s.finalizeRecord(rec, j)); err != nil {
			s.opts.Logger.Warn("persist terminal failed", "job", rec.ID, "error", err)
		} else {
			s.opts.Logger.Info("job record finalized", "job", rec.ID, "state", string(j.State()))
		}
		// The terminal record is in the store; retire the map entry so a
		// long-lived daemon's watcher map doesn't grow without bound. From
		// here watcherDone's nil return means "already finalized", exactly
		// as it does for recovered finished jobs.
		s.mu.Lock()
		delete(s.watchers, rec.ID)
		s.mu.Unlock()
	}()
}

// finalizeRecord fills in a terminal job's durable outcome: state, error,
// result summary + digest, event counts, and — for deterministic jobs
// whose complete history the hub still retained and that fit the store
// cap — the full NDJSON event log (plus its digest, kept even when the
// log itself is too large to embed).
func (s *Server) finalizeRecord(rec jobstore.Record, j *adhocga.Job) jobstore.Record {
	rec.State = string(j.State())
	if err := j.Err(); err != nil {
		rec.Error = err.Error()
	}
	rec.Events = j.EventCount()
	snap := j.Snapshot()
	if n := len(snap); n > 0 {
		rec.Watermark = snap[n-1].Seq
	}
	if j.State() != adhocga.JobDone {
		return rec
	}
	if table := leagueOf(j); table != nil {
		if result, err := json.Marshal(table); err == nil {
			rec.Result = result
			rec.ResultDigest = digest(result)
		}
		s.leagueMatches.Add(uint64(table.Matches))
	} else if results, err := json.Marshal(resultsOf(j)); err == nil {
		rec.Result = results
		rec.ResultDigest = digest(results)
	}
	fullHistory := len(snap) == rec.Events && (len(snap) == 0 || snap[0].Seq == 0)
	if rec.Deterministic && fullHistory {
		log := eventLogNDJSON(snap)
		rec.LogDigest = digest(log)
		if int64(len(log)) <= s.opts.MaxStoredLogBytes {
			rec.EventLog = log
		}
	}
	return rec
}

// watcherDone returns the persistence watcher's completion channel for a
// job, or nil when none is registered — recovered finished jobs, and jobs
// whose watcher already persisted the terminal record and retired itself.
func (s *Server) watcherDone(id string) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watchers[id]
}

// Recover replays the store into the running service. Call it once, after
// New and before serving traffic. Records in a terminal state stay
// store-only — status, results, and archived event replays are served
// from the record, nothing is recomputed. Unfinished records (queued or
// running when the previous process died) are re-submitted to the session
// under their original IDs from their recorded (seed, spec): by the
// determinism contract the re-run is bit-identical to the run the crash
// destroyed, so from the client's point of view the job simply finishes
// late. Returns (records loaded, jobs re-submitted).
func (s *Server) Recover(ctx context.Context) (recovered, resumed int, err error) {
	recs, err := s.store.List()
	if err != nil {
		return 0, 0, fmt.Errorf("service: recover: %w", err)
	}
	for _, rec := range recs {
		recovered++
		if jobstore.TerminalState(rec.State) {
			continue
		}
		// List gives headers; re-running needs the stored spec.
		rec, ok, err := s.store.Get(rec.ID)
		if err != nil {
			return recovered, resumed, fmt.Errorf("service: recover: %w", err)
		}
		if !ok {
			continue
		}
		spec, err := specFromRecord(rec)
		if err != nil {
			// The record is damaged beyond re-running (its spec no longer
			// parses). Mark it failed so it stops being resumed on every
			// restart, but keep it visible.
			rec.State = jobstore.StateFailed
			rec.Error = fmt.Sprintf("recovery: %v", err)
			if perr := s.store.Put(rec); perr != nil {
				s.opts.Logger.Warn("persist unrecoverable record failed", "job", rec.ID, "error", perr)
			}
			s.opts.Logger.Warn("record unrecoverable, marked failed", "job", rec.ID, "error", err)
			continue
		}
		j, err := s.session.SubmitNamed(context.WithoutCancel(ctx), rec.ID, spec)
		if err != nil {
			return recovered, resumed, fmt.Errorf("service: resume %s: %w", rec.ID, err)
		}
		// Present the resumption as a fresh queued run so the watcher's
		// first event re-persists a running state with a rewound
		// watermark — the re-run really does start over from event 0.
		rec.State = jobstore.StateQueued
		rec.Watermark = 0
		s.watch(rec, j)
		s.opts.Logger.Info("job resumed from store", "job", rec.ID, "seed", rec.Seed)
		resumed++
	}
	s.mu.Lock()
	s.recovered, s.resumed = recovered, resumed
	s.mu.Unlock()
	s.opts.Logger.Info("recovery complete", "recovered", recovered, "resumed", resumed)
	return recovered, resumed, nil
}
