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
	"adhocga/internal/scenario"
)

// The persistence glue between live jobs and the jobstore. A job's record
// is written at its two real transitions and nowhere in between: accept
// writes the queued record before the 202 goes out, and watch writes the
// terminal record once the job ends. Recover replays the store at startup,
// re-submitting unfinished records from their recorded (seed, spec) and
// leaving finished ones to serve status, results, and archived event
// replays without recompute.
//
// Durability contract: both writes change the record's State, so the file
// backend fsyncs each before Put returns. A crash can therefore never lose
// an accepted job. A job caught mid-run — or after the live session
// reported done but before the terminal record landed — is still queued
// in the store, and recovery simply re-runs it from event 0; determinism
// guarantees the second completion is bit-identical to the one the crash
// discarded. A resumed job writes nothing until its terminal record.

// newRecord builds the durable identity of a fresh submission. doc is the
// document specFromRecord re-runs the job from: a resolved scenarios
// submission, or a league spec, whose seats resolve from the champion
// archive (itself durable).
func newRecord(id string, doc any) (jobstore.Record, error) {
	spec, err := json.Marshal(doc)
	if err != nil {
		return jobstore.Record{}, fmt.Errorf("encode spec: %w", err)
	}
	rec := jobstore.Record{ID: id, Spec: spec, State: jobstore.StateQueued}
	switch d := doc.(type) {
	case resolvedSubmit:
		rec.Kind, rec.Seed = "scenarios", d.Seed
		// Event ordering is reproducible only when replicates run one at
		// a time; that is what makes the event log byte-comparable.
		rec.Deterministic = d.Parallelism == 1
	case adhocga.LeagueJobSpec:
		rec.Kind, rec.Seed = "league", d.Seed
		// A league emits no mid-flight events, so its (trivial) event log
		// is reproducible at any parallelism; the table itself is always
		// bit-identical.
		rec.Deterministic = true
	default:
		return jobstore.Record{}, fmt.Errorf("no record kind for %T", doc)
	}
	return rec, nil
}

// specFromRecord reverses newRecord: the stored document back into a
// runnable workload, dispatched by the record's Kind. It decodes leniently,
// because it reads records written by older builds.
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
		specs, err := scenario.Load(bytes.NewReader(sp.Scenarios))
		if err != nil {
			return nil, fmt.Errorf("scenarios: %w", err)
		}
		return sp.jobSpec(specs), nil
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

// watch finalizes one live job's record: it waits the job out and writes
// the terminal record finalizeRecord builds. That is the record's last
// write; the one before it is the queued record.
func (s *Server) watch(rec jobstore.Record, j *adhocga.Job) {
	s.pendingWatches.Add(1)
	go func() {
		defer s.pendingWatches.Add(-1)
		_ = j.Wait(context.Background())
		if table := leagueOf(j); table != nil && j.State() == adhocga.JobDone {
			s.leagueMatches.Add(uint64(table.Matches))
		}
		if err := s.store.Put(finalizeRecord(rec, j)); err != nil {
			s.opts.Logger.Warn("persist terminal failed", "job", rec.ID, "error", err)
		} else {
			s.opts.Logger.Info("job record finalized", "job", rec.ID, "state", string(j.State()))
		}
	}()
}

// finalizeRecord fills in a terminal job's durable outcome: state, error,
// result summary + digest, event counts, and — for deterministic jobs
// whose complete history the hub still retained — the NDJSON event log's
// digest, plus the log itself when embedLog allows.
func finalizeRecord(rec jobstore.Record, j *adhocga.Job) jobstore.Record {
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
	} else if results, err := json.Marshal(resultsOf(j)); err == nil {
		rec.Result = results
		rec.ResultDigest = digest(results)
	}
	fullHistory := len(snap) == rec.Events && (len(snap) == 0 || snap[0].Seq == 0)
	if rec.Deterministic && fullHistory {
		log := eventLogNDJSON(snap)
		rec.LogDigest = digest(log)
		if embedLog(log) {
			rec.EventLog = log
		}
	}
	return rec
}

// embedLog reports whether a finished job's record embeds its event log;
// a bigger log keeps only its digest.
func embedLog(log []byte) bool { return len(log) <= maxStoredLogBytes }

// Recover replays the store into the running service. Call it once, after
// New and before serving traffic. Records in a terminal state stay
// store-only — status, results, and archived event replays are served
// from the record, nothing is recomputed. Unfinished records (queued when
// the previous process died, or running in a log an older build wrote) are
// re-submitted to the session under their original IDs from their recorded
// (seed, spec): by the determinism contract the re-run is bit-identical to
// the run the crash destroyed, so from the client's point of view the job
// simply finishes late. A resumed job's record is written once more, when
// it ends. Returns (records loaded, jobs re-submitted).
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
