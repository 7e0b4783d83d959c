package jobstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// benchRecords is the store size every File benchmark runs at.
const benchRecords = 1000

// benchRecord is a finished job shaped like the daemon's: a spec, a
// result summary and a short NDJSON event log.
func benchRecord(i int) Record {
	r := testRecord(fmt.Sprintf("job-%d", i), StateDone)
	r.Events = 7
	r.Result = json.RawMessage(`[{"name":"svc-smoke","final_coop_mean":0.18,"final_coop_std":0.0226,"generations":2,"repetitions":2}]`)
	r.ResultDigest = fmt.Sprintf("%064x", i)
	r.EventLog = bytes.Repeat([]byte(`{"seq":0,"kind":"generation","coop":0.18}`+"\n"), 7)
	r.LogDigest = r.ResultDigest
	return r
}

// openBenchStore opens a file store holding benchRecords records. It
// writes the log directly, so set-up costs one fsync, not one per record.
func openBenchStore(b *testing.B) *File {
	b.Helper()
	var wal bytes.Buffer
	for i := 1; i <= benchRecords; i++ {
		rec := benchRecord(i)
		line, err := EncodeEntry(Entry{Op: "put", Rec: &rec})
		if err != nil {
			b.Fatal(err)
		}
		wal.Write(line)
	}
	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFileName), wal.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	fs, err := OpenFile(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { fs.Close() })
	return fs
}

// BenchmarkFilePut times a state-transition Put, so each one includes the
// append's fsync.
func BenchmarkFilePut(b *testing.B) {
	fs := openBenchStore(b)
	states := [2]string{StateRunning, StateDone}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := benchRecord(i%benchRecords + 1)
		rec.State = states[i/benchRecords%2]
		if err := fs.Put(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileGet times reading one record back from the log.
func BenchmarkFileGet(b *testing.B) {
	fs := openBenchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := fs.Get(fmt.Sprintf("job-%d", i%benchRecords+1)); err != nil || !ok {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkFileList times listing every record's header.
func BenchmarkFileList(b *testing.B) {
	fs := openBenchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if list, err := fs.List(); err != nil || len(list) != benchRecords {
			b.Fatalf("list: %d records, err %v", len(list), err)
		}
	}
}
