package jobstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func testRecord(id, state string) Record {
	return Record{
		ID:        id,
		Kind:      "scenarios",
		Spec:      json.RawMessage(`{"scenarios":{"name":"x"},"seed":7}`),
		Seed:      7,
		State:     state,
		Watermark: 3,
	}
}

func TestMemBasics(t *testing.T) {
	m := NewMem()
	if _, ok, _ := m.Get("job-1"); ok {
		t.Fatal("empty store has job-1")
	}
	if err := m.Put(Record{}); err == nil {
		t.Fatal("id-less record accepted")
	}
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		if err := m.Put(testRecord(id, StateQueued)); err != nil {
			t.Fatal(err)
		}
	}
	r2 := testRecord("job-2", StateDone)
	r2.ResultDigest = "abc"
	if err := m.Put(r2); err != nil {
		t.Fatal(err)
	}
	got, ok, err := m.Get("job-2")
	if err != nil || !ok || got.State != StateDone || got.ResultDigest != "abc" {
		t.Fatalf("get job-2: %+v %v %v", got, ok, err)
	}
	if err := m.Delete("job-1"); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("job-404"); err != nil {
		t.Fatal(err)
	}
	list, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range list {
		ids = append(ids, r.ID)
	}
	if !reflect.DeepEqual(ids, []string{"job-2", "job-3"}) {
		t.Fatalf("list order %v", ids)
	}
	if m.Backend() != "mem" {
		t.Fatalf("backend %q", m.Backend())
	}
}

func TestMemPutDoesNotAliasCallerBuffers(t *testing.T) {
	m := NewMem()
	r := testRecord("job-1", StateQueued)
	if err := m.Put(r); err != nil {
		t.Fatal(err)
	}
	r.Spec[2] = 'X' // mutate the caller's buffer after Put
	got, _, _ := m.Get("job-1")
	if bytes.Contains(got.Spec, []byte{'X'}) {
		t.Fatal("store aliases the caller's spec buffer")
	}
	got.Spec[2] = 'Y' // mutate the returned buffer
	again, _, _ := m.Get("job-1")
	if bytes.Contains(again.Spec, []byte{'Y'}) {
		t.Fatal("Get returns the store's own buffer")
	}
}

func TestFileRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Backend() != "file" {
		t.Fatalf("backend %q", fs.Backend())
	}
	done := testRecord("job-1", StateDone)
	done.Result = json.RawMessage(`[{"name":"x"}]`)
	done.ResultDigest = "deadbeef"
	done.EventLog = []byte("{\"seq\":0}\n{\"seq\":1}\n")
	done.LogDigest = "cafe"
	done.Deterministic = true
	for _, r := range []Record{done, testRecord("job-2", StateRunning), testRecord("job-3", StateQueued)} {
		if err := fs.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Delete("job-3"); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, fs, done, testRecord("job-2", StateRunning))
	// List returns headers: the payloads stay on disk until a Get.
	if list, _ := fs.List(); len(list) != 2 || !reflect.DeepEqual(list[0], done.header()) {
		t.Fatalf("list before reopen: %+v", list)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}
	if err := fs.Put(testRecord("job-9", StateQueued)); err == nil {
		t.Fatal("Put on closed store accepted")
	}

	re, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Skipped() != 0 {
		t.Fatalf("clean WAL skipped %d entries", re.Skipped())
	}
	wantRecords(t, re, done, testRecord("job-2", StateRunning))
	list, _ := re.List()
	if len(list) != 2 || list[0].ID != "job-1" || list[1].ID != "job-2" {
		t.Fatalf("list after reopen: %+v", list)
	}
	if _, ok, _ := re.Get("job-3"); ok {
		t.Fatal("deleted job-3 resurrected by reopen")
	}
}

// wantRecords requires Get to return each record exactly as it was Put.
func wantRecords(t *testing.T, st Store, want ...Record) {
	t.Helper()
	for _, w := range want {
		got, ok, err := st.Get(w.ID)
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", w.ID, ok, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("Get(%s) changed the record:\n got %+v\nwant %+v", w.ID, got, w)
		}
	}
}

// TestFileRecoverySkipsCorruptTail is the crash contract: a torn final
// write (SIGKILL mid-append) and a flipped byte mid-file both lose only
// the damaged entries, never the store.
func TestFileRecoverySkipsCorruptTail(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job-1", "job-2"} {
		if err := fs.Put(testRecord(id, StateRunning)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, walFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Append a torn half-line, as if the process died mid-write.
	torn, err := EncodeEntry(Entry{Op: "put", Rec: &Record{ID: "job-3", State: StateQueued}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, torn[:len(torn)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("recovery failed on torn tail: %v", err)
	}
	if re.Skipped() != 1 {
		t.Fatalf("skipped %d, want 1", re.Skipped())
	}
	if _, ok, _ := re.Get("job-3"); ok {
		t.Fatal("torn record half-recovered")
	}
	if _, ok, _ := re.Get("job-2"); !ok {
		t.Fatal("intact record lost to tail corruption")
	}
	re.Close()

	// Flip one byte inside the first line's payload: its checksum fails,
	// it is skipped, and later entries still load.
	data, _ = os.ReadFile(path)
	lines := bytes.SplitAfter(data, []byte("\n"))
	idx := bytes.IndexByte(lines[0], '{')
	lines[0][idx+5] ^= 0x40
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err = OpenFile(dir)
	if err != nil {
		t.Fatalf("recovery failed on mid-file corruption: %v", err)
	}
	defer re.Close()
	if re.Skipped() == 0 {
		t.Fatal("corrupt line not counted as skipped")
	}
	if _, ok, _ := re.Get("job-2"); !ok {
		t.Fatal("entry after the corrupt line lost")
	}
}

// TestFileRepairsTornTailBeforeAppending is the double-crash contract: a
// torn final line must never swallow the next fsynced entry. Without the
// tail repair, the first append after reopening glued onto the fragment,
// forming one corrupt line that the next replay skipped — silently losing
// a successfully fsynced Put after a second restart.
func TestFileRepairsTornTailBeforeAppending(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(testRecord("job-1", StateRunning)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walFileName)
	torn, err := EncodeEntry(Entry{Op: "put", Rec: &Record{ID: "job-2", State: StateQueued}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// First restart: the fragment is skipped and a new job lands.
	re, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Skipped() != 1 {
		t.Fatalf("skipped %d, want 1 (the torn fragment)", re.Skipped())
	}
	wantRecords(t, re, testRecord("job-1", StateRunning))
	if err := re.Put(testRecord("job-3", StateQueued)); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, re, testRecord("job-3", StateQueued))
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Second restart: the fsynced job-3 Put must have survived on its own
	// line instead of gluing onto the torn fragment.
	re, err = OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok, _ := re.Get("job-3"); !ok {
		t.Fatal("fsynced Put after a torn tail lost on the second restart")
	}
	wantRecords(t, re, testRecord("job-1", StateRunning), testRecord("job-3", StateQueued))
	if _, ok, _ := re.Get("job-2"); ok {
		t.Fatal("torn record half-recovered")
	}
}

// TestFileKeepsEntryMissingOnlyNewline: a crash that cut exactly the
// trailing '\n' leaves a complete, checksum-valid entry. Tail repair must
// terminate the line and keep the entry, not discard it.
func TestFileKeepsEntryMissingOnlyNewline(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(testRecord("job-1", StateDone)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.TrimSuffix(data, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Skipped() != 0 {
		t.Fatalf("skipped %d, want 0: the entry is intact", re.Skipped())
	}
	if _, ok, _ := re.Get("job-1"); !ok {
		t.Fatal("entry missing only its newline was discarded")
	}
	if err := re.Put(testRecord("job-2", StateQueued)); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re, err = OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Skipped() != 0 {
		t.Fatalf("skipped %d after repair, want 0", re.Skipped())
	}
	wantRecords(t, re, testRecord("job-1", StateDone), testRecord("job-2", StateQueued))
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Cut the newline again and churn job-2 past a tiny threshold: the
	// compaction copies job-1's repaired line, newline included.
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.TrimSuffix(data, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err = openFile(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	churn := testRecord("job-2", StateQueued)
	for i := 0; re.Stats().Compactions == 0; i++ {
		churn.Watermark = i
		if err := re.Put(churn); err != nil {
			t.Fatal(err)
		}
	}
	wantRecords(t, re, testRecord("job-1", StateDone), churn)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re, err = OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Skipped() != 0 {
		t.Fatalf("skipped %d after compaction, want 0", re.Skipped())
	}
	wantRecords(t, re, testRecord("job-1", StateDone), churn)
}

func TestFileCompactionShrinksLogAndKeepsRecords(t *testing.T) {
	dir := t.TempDir()
	fs, err := openFile(dir, 512) // tiny threshold so churn triggers compaction
	if err != nil {
		t.Fatal(err)
	}
	// Many updates to the same two records: almost everything is garbage.
	for i := 0; i < 200; i++ {
		r := testRecord("job-1", StateRunning)
		r.Watermark = i
		if err := fs.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	final := testRecord("job-1", StateDone)
	final.Watermark = 200
	final.Result = json.RawMessage(`[{"name":"x"}]`)
	final.EventLog = []byte("{\"seq\":0}\n")
	if err := fs.Put(final); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(testRecord("job-2", StateQueued)); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().Compactions == 0 {
		t.Fatal("churn never compacted")
	}
	wantRecords(t, fs, final, testRecord("job-2", StateQueued))
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	// 202 appended entries at ~150 bytes each without compaction; the
	// compacted live set is 2 entries.
	if info.Size() > 2048 {
		t.Fatalf("WAL not compacted: %d bytes", info.Size())
	}
	re, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	wantRecords(t, re, final, testRecord("job-2", StateQueued))
	if list, _ := re.List(); len(list) != 2 || list[0].ID != "job-1" {
		t.Fatalf("list after compaction: %+v", list)
	}
}

func TestEncodeDecodeEntryValidation(t *testing.T) {
	if _, err := EncodeEntry(Entry{Op: "put"}); err == nil {
		t.Error("put without record accepted")
	}
	if _, err := EncodeEntry(Entry{Op: "del"}); err == nil {
		t.Error("del without id accepted")
	}
	if _, err := EncodeEntry(Entry{Op: "frobnicate", ID: "x"}); err == nil {
		t.Error("unknown op accepted")
	}
	rec := testRecord("job-1", StateQueued)
	line, err := EncodeEntry(Entry{Op: "put", Rec: &rec})
	if err != nil {
		t.Fatal(err)
	}
	e, err := DecodeEntry(line)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*e.Rec, rec) {
		t.Fatalf("round trip changed the record: %+v", *e.Rec)
	}
	for name, mangled := range map[string][]byte{
		"wrong magic":  []byte("zz9 " + string(line[4:])),
		"short":        line[:8],
		"bad crc hex":  append([]byte(walMagic+" zzzzzzzz "), line[13:]...),
		"flipped byte": flipByte(line, len(line)/2),
		"empty":        {},
	} {
		if _, err := DecodeEntry(mangled); err == nil {
			t.Errorf("%s decoded without error", name)
		}
	}
	// A del tombstone round-trips too.
	line, err = EncodeEntry(Entry{Op: "del", ID: "job-1"})
	if err != nil {
		t.Fatal(err)
	}
	if e, err := DecodeEntry(line); err != nil || e.Op != "del" || e.ID != "job-1" {
		t.Fatalf("del round trip: %+v %v", e, err)
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x01
	return out
}

func TestReplayMixedGoodAndBadLines(t *testing.T) {
	var buf bytes.Buffer
	for _, id := range []string{"job-1", "job-2"} {
		rec := testRecord(id, StateQueued)
		line, _ := EncodeEntry(Entry{Op: "put", Rec: &rec})
		buf.Write(line)
	}
	buf.WriteString("garbage line\n\n")
	rec := testRecord("job-3", StateQueued)
	line, _ := EncodeEntry(Entry{Op: "put", Rec: &rec})
	buf.Write(line)
	buf.WriteString(walMagic + " 00000000 {\"op\":") // torn tail

	entries, skipped := replay(buf.Bytes())
	if len(entries) != 3 {
		t.Fatalf("replayed %d entries, want 3", len(entries))
	}
	if skipped != 2 {
		t.Fatalf("skipped %d, want 2 (garbage + torn tail; blank lines are free)", skipped)
	}
	var ids []string
	for _, e := range entries {
		ids = append(ids, e.Rec.ID)
	}
	if strings.Join(ids, ",") != "job-1,job-2,job-3" {
		t.Fatalf("entry order %v", ids)
	}
}

// TestStatsAndFsyncObserver pins the observability seam the daemon's
// metrics layer hangs off: File.Stats counts appends/fsyncs (and only
// state transitions fsync), the OnFsync observer sees each synchronous
// append's latency, Len tracks the live record census on both backends,
// and the counters survive the sizes being polled mid-write.
func TestStatsAndFsyncObserver(t *testing.T) {
	m := NewMem()
	if m.Len() != 0 {
		t.Fatalf("empty mem Len %d", m.Len())
	}
	if err := m.Put(testRecord("job-1", StateQueued)); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Fatalf("mem Len %d, want 1", m.Len())
	}

	fs, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var observed int
	fs.OnFsync(func(d time.Duration) {
		if d < 0 {
			t.Errorf("negative fsync latency %v", d)
		}
		observed++
	})
	if st := fs.Stats(); st.Appends != 0 || st.Fsyncs != 0 || st.Records != 0 {
		t.Fatalf("fresh store stats %+v", st)
	}

	// A state transition fsyncs; a watermark-only update appends without
	// one. Both count as appends, grow the file, and keep Records = live.
	if err := fs.Put(testRecord("job-1", StateQueued)); err != nil {
		t.Fatal(err)
	}
	progress := testRecord("job-1", StateQueued) // same state: watermark-only update
	progress.Watermark = 9
	if err := fs.Put(progress); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.Appends != 2 {
		t.Errorf("appends %d, want 2", st.Appends)
	}
	if st.Fsyncs != 1 || observed != 1 {
		t.Errorf("fsyncs %d observed %d, want 1/1 (watermark updates must not fsync)", st.Fsyncs, observed)
	}
	if st.Records != 1 || fs.Len() != 1 {
		t.Errorf("records %d Len %d, want 1/1", st.Records, fs.Len())
	}
	if st.TotalBytes <= 0 || st.LiveBytes <= 0 || st.TotalBytes < st.LiveBytes {
		t.Errorf("sizes total %d live %d", st.TotalBytes, st.LiveBytes)
	}
	if st.TornSkipped != 0 || st.Compactions != 0 {
		t.Errorf("unexpected torn/compactions in %+v", st)
	}

	done := testRecord("job-1", StateDone)
	if err := fs.Put(done); err != nil { // state transition: fsync + observer
		t.Fatal(err)
	}
	if st := fs.Stats(); st.Fsyncs != 2 || observed != 2 {
		t.Errorf("after terminal put: fsyncs %d observed %d, want 2/2", st.Fsyncs, observed)
	}

	// Live bytes are the exact lengths of the indexed lines, so a
	// compaction leaves a file of exactly that size.
	small, err := openFile(t.TempDir(), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	for i := 0; small.Stats().Compactions == 0; i++ {
		progress.Watermark = i
		if err := small.Put(progress); err != nil {
			t.Fatal(err)
		}
	}
	if st := small.Stats(); st.LiveBytes != st.TotalBytes || st.Records != 1 {
		t.Errorf("right after compaction: live %d total %d records %d", st.LiveBytes, st.TotalBytes, st.Records)
	}
}

// TestFileHeapIndependentOfPayloads pins the index-only layout: 2,000
// records carrying a 16 KiB event log each (32 MiB of payload) grow the
// live heap by less than 4 MiB, because the store keeps each record's
// header and log offset in memory and reads payloads back on Get.
func TestFileHeapIndependentOfPayloads(t *testing.T) {
	fs, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	rec := testRecord("", StateDone)
	rec.EventLog = bytes.Repeat([]byte("x"), 16<<10)
	before := liveHeap()
	for i := 1; i <= 2000; i++ {
		rec.ID = fmt.Sprintf("job-%d", i)
		if err := fs.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if grown := liveHeap() - before; grown >= 4<<20 {
		t.Fatalf("2,000 puts of 16 KiB payloads grew the heap by %d bytes, want < 4 MiB", grown)
	}
	wantRecords(t, fs, rec)
}

// legacyRecords are the final records in testdata/legacy.wal, a log an
// earlier build of this store wrote through the Puts and Delete of
// writeLegacyOps.
func legacyRecords() []Record {
	done := testRecord("job-1", StateDone)
	done.Deterministic = true
	done.Events = 7
	done.Watermark = 6
	done.Result = json.RawMessage(`[{"name":"x","final_coop_mean":0.18}]`)
	done.ResultDigest = "deadbeef"
	done.EventLog = []byte("{\"seq\":0}\n{\"seq\":1}\n")
	done.LogDigest = "cafe"
	running := testRecord("job-2", StateRunning)
	running.Watermark = 64
	failed := testRecord("job-3", StateFailed)
	failed.Error = "boom"
	return []Record{done, running, failed}
}

// writeLegacyOps puts four records queued, moves job-1 through running to
// its final record, updates job-2 and job-3, and deletes job-4.
func writeLegacyOps(t *testing.T, st Store) {
	t.Helper()
	for _, id := range []string{"job-1", "job-2", "job-3", "job-4"} {
		if err := st.Put(testRecord(id, StateQueued)); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range append([]Record{testRecord("job-1", StateRunning)}, legacyRecords()...) {
		if err := st.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Delete("job-4"); err != nil {
		t.Fatal(err)
	}
}

// TestFileOpensLegacyLog pins the jr1 format across builds: the same
// operations write the same bytes as an earlier build did, and that
// build's log opens without skips, reads back record for record, and
// takes appends after it.
func TestFileOpensLegacyLog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fresh, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeLegacyOps(t, fresh)
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, walFileName)); !bytes.Equal(got, data) {
		t.Fatalf("log bytes differ from testdata/legacy.wal:\n%s", got)
	}

	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	want := legacyRecords()
	if st := fs.Stats(); st.TornSkipped != 0 || st.TotalBytes != int64(len(data)) || st.Records != len(want) {
		t.Fatalf("stats after open %+v (file %d bytes)", st, len(data))
	}
	wantRecords(t, fs, want...)
	list, _ := fs.List()
	var headers []Record
	for _, r := range want {
		headers = append(headers, r.header())
	}
	if !reflect.DeepEqual(list, headers) {
		t.Fatalf("list %+v", list)
	}
	next := testRecord("job-5", StateQueued)
	if err := fs.Put(next); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, fs, append(want, next)...)
}
