package jobstore

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJobRecordCodec fuzzes the WAL record codec from both ends: a record
// built from fuzzed fields must encode/decode to itself exactly, and any
// truncation or byte flip of the encoded line must be rejected by
// DecodeEntry and skipped by the WAL scan — never panic, never half-decode —
// while intact neighbours survive. This is the recovery-safety property
// the crash/restart harness relies on: whatever a SIGKILL leaves at the
// WAL tail, reopening the store succeeds.
func FuzzJobRecordCodec(f *testing.F) {
	f.Add("job-1", "scenarios", []byte(`{"scenarios":{"name":"x"},"seed":7}`), uint64(7), StateDone, 12, uint(10), uint(3))
	f.Add("job-2", "", []byte(`[]`), uint64(0), StateQueued, 0, uint(0), uint(0))
	f.Add("j", "k", []byte("not json at all"), uint64(1<<63), StateRunning, -5, uint(9999), uint(1))
	f.Add("job-3", "scenarios", []byte("{\"a\":\"x\\n\"}"), uint64(42), "bogus-state", 1, uint(2), uint(80))

	f.Fuzz(func(t *testing.T, id, kind string, spec []byte, seed uint64, state string, watermark int, cut, flip uint) {
		rec := Record{ID: id, Kind: kind, Seed: seed, State: state, Watermark: watermark}
		if json.Valid(spec) && len(bytes.TrimSpace(spec)) > 0 {
			rec.Spec = json.RawMessage(spec)
		} else {
			rec.EventLog = spec // arbitrary bytes are fine here (base64 in JSON)
		}

		line, err := EncodeEntry(Entry{Op: "put", Rec: &rec})
		if id == "" {
			if err == nil {
				t.Fatal("encoded a record without an id")
			}
			// Still exercise the scan on the raw fuzz bytes: arbitrary input
			// must never panic it.
			replay(spec)
			return
		}
		if err != nil {
			t.Fatalf("encode valid record: %v", err)
		}
		got, err := DecodeEntry(line)
		if err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if got.Op != "put" || !reflect.DeepEqual(normalize(*got.Rec), normalize(rec)) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", *got.Rec, rec)
		}

		// Truncate the line at a fuzzed offset: DecodeEntry must reject it
		// (except at the full length, where only the newline is gone).
		if n := int(cut % uint(len(line))); n < len(line)-1 {
			if _, err := DecodeEntry(line[:n]); err == nil {
				t.Fatalf("truncation to %d bytes decoded without error", n)
			}
		}
		// Flip one byte: the checksum (or frame) must catch it. Flipping
		// can in principle collide, but CRC-32 over short lines makes that
		// astronomically unlikely for single-bit flips — and a flip inside
		// the trailing newline just reframes the same payload, so skip it.
		if i := int(flip % uint(len(line))); i < len(line)-1 {
			mangled := append([]byte(nil), line...)
			mangled[i] ^= 0x01
			if e, err := DecodeEntry(mangled); err == nil {
				// The only legal way a flip decodes is if it produced an
				// identical payload, which a single-bit flip cannot.
				t.Fatalf("flipped byte %d still decoded: %+v", i, e)
			}
		}

		// A WAL image of [intact, torn tail] must recover exactly the
		// intact entry, counting the tail as skipped.
		torn := append(append([]byte(nil), line...), line[:len(line)/2]...)
		entries, skipped := replay(torn)
		if len(entries) != 1 || !reflect.DeepEqual(normalize(*entries[0].Rec), normalize(rec)) {
			t.Fatalf("replay of torn image recovered %d entries", len(entries))
		}
		if len(line)/2 > 0 && skipped != 1 {
			t.Fatalf("torn tail skipped %d times, want 1", skipped)
		}

		// And the scan must survive arbitrary garbage.
		replay(spec)
		replay(append([]byte(walMagic+" "), spec...))
	})
}

// replay decodes a whole WAL image with the store's own scan, returning
// the intact entries in order and the number of corrupt lines skipped.
func replay(data []byte) (entries []Entry, skipped int) {
	_, skipped, _ = scanLines(bytes.NewReader(data), func(e Entry, _, _ int64) {
		entries = append(entries, e)
	})
	return entries, skipped
}

// normalize maps a record through its JSON round trip so nil-vs-empty
// slice differences (invisible to any Store user) don't fail DeepEqual.
func normalize(r Record) Record {
	b, _ := json.Marshal(r)
	var out Record
	_ = json.Unmarshal(b, &out)
	return out
}
