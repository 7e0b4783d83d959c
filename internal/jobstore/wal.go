package jobstore

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// The file backend is a single append-only write-ahead log: every Put or
// Delete appends one framed line, recovery replays the file front to back
// and keeps the last entry per job, and a compaction pass rewrites the
// live set through a temp file + rename once superseded entries dominate.
// Each line is independently checksummed, so a torn write from a crash —
// or a corrupted record anywhere in the file — is detected and skipped by
// recovery instead of taking the whole store down.
//
// Line format (one WAL entry):
//
//	jr1 <crc32-ieee, 8 hex digits> <entry JSON>\n
//
// The checksum covers exactly the JSON payload. JSON encoding never emits
// raw newlines (strings are escaped, []byte is base64), so lines are a
// safe framing unit.

// walMagic tags the record-codec version; a future incompatible format
// bumps it, and recovery skips lines it does not understand.
const walMagic = "jr1"

// DefaultCompactThreshold is the WAL size below which the file backend
// never bothers compacting.
const DefaultCompactThreshold = 1 << 20

// walFileName is the log's name inside the data directory.
const walFileName = "jobs.wal"

// Entry is one WAL line: a record upsert or a deletion tombstone.
type Entry struct {
	// Op is "put" (Rec holds the record) or "del" (ID names the target).
	Op  string  `json:"op"`
	ID  string  `json:"id,omitempty"`
	Rec *Record `json:"rec,omitempty"`
}

// EncodeEntry frames one entry as a checksummed WAL line, including the
// trailing newline.
func EncodeEntry(e Entry) ([]byte, error) {
	switch e.Op {
	case "put":
		if e.Rec == nil || e.Rec.ID == "" {
			return nil, fmt.Errorf("jobstore: put entry needs a record with an id")
		}
	case "del":
		if e.ID == "" {
			return nil, fmt.Errorf("jobstore: del entry needs an id")
		}
	default:
		return nil, fmt.Errorf("jobstore: unknown entry op %q", e.Op)
	}
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("jobstore: encode entry: %w", err)
	}
	var buf bytes.Buffer
	buf.Grow(len(walMagic) + 10 + len(payload) + 1)
	buf.WriteString(walMagic)
	buf.WriteByte(' ')
	fmt.Fprintf(&buf, "%08x", crc32.ChecksumIEEE(payload))
	buf.WriteByte(' ')
	buf.Write(payload)
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// DecodeEntry parses one WAL line (with or without its trailing newline),
// verifying the frame and checksum. Any deviation — wrong magic, short
// line, checksum mismatch, malformed JSON, invalid op — is an error; the
// caller decides whether to skip or abort.
func DecodeEntry(line []byte) (Entry, error) {
	payload, err := framePayload(line)
	if err != nil {
		return Entry{}, err
	}
	var e Entry
	if err := json.Unmarshal(payload, &e); err != nil {
		return Entry{}, fmt.Errorf("jobstore: entry JSON: %w", err)
	}
	switch e.Op {
	case "put":
		if e.Rec == nil || e.Rec.ID == "" {
			return Entry{}, fmt.Errorf("jobstore: put entry without record id")
		}
	case "del":
		if e.ID == "" {
			return Entry{}, fmt.Errorf("jobstore: del entry without id")
		}
	default:
		return Entry{}, fmt.Errorf("jobstore: unknown entry op %q", e.Op)
	}
	return e, nil
}

// framePayload checks one WAL line's frame and checksum and returns the
// JSON payload the checksum covers.
func framePayload(line []byte) ([]byte, error) {
	line = bytes.TrimSuffix(line, []byte("\n"))
	rest, ok := bytes.CutPrefix(line, []byte(walMagic+" "))
	if !ok {
		return nil, fmt.Errorf("jobstore: not a %s line", walMagic)
	}
	if len(rest) < 9 || rest[8] != ' ' {
		return nil, fmt.Errorf("jobstore: truncated frame header")
	}
	var crcBytes [4]byte
	if _, err := hex.Decode(crcBytes[:], rest[:8]); err != nil {
		return nil, fmt.Errorf("jobstore: bad checksum field: %w", err)
	}
	want := uint32(crcBytes[0])<<24 | uint32(crcBytes[1])<<16 | uint32(crcBytes[2])<<8 | uint32(crcBytes[3])
	payload := rest[9:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("jobstore: checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	return payload, nil
}

// scanLines reads a WAL image front to back and calls fn with each intact
// entry and the offset and length of its line. The length counts the
// line's newline even on an unterminated final line, because openFile
// terminates that line before anything reads it back. Blank lines are
// free; corrupt lines are counted in skipped. size is the bytes read.
func scanLines(r io.Reader, fn func(e Entry, off, n int64)) (size int64, skipped int, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 {
			n := int64(len(line))
			if line[len(line)-1] != '\n' {
				n++
			}
			if len(bytes.TrimSpace(line)) > 0 {
				if e, err := DecodeEntry(line); err == nil {
					fn(e, size, n)
				} else {
					skipped++
				}
			}
			size += int64(len(line))
		}
		if rerr == io.EOF {
			return size, skipped, nil
		}
		if rerr != nil {
			return size, skipped, rerr
		}
	}
}

// File is the durable WAL-backed Store. Create with OpenFile; the same
// directory reopened yields the same records (modulo skipped corruption).
//
// Memory holds an index, not the records: per live record its header
// (every field but the Spec, Result and EventLog payloads) and the offset
// and length of its latest line in the log. Get reads that one line back
// and re-verifies its checksum, so the process's footprint grows with the
// number of records, not with the size of their payloads.
type File struct {
	mu         sync.Mutex
	dir        string
	f          *os.File
	index      map[string]slot
	order      []string
	liveBytes  int64 // sum of the indexed lines' lengths
	totalBytes int64 // bytes in the WAL file right now
	skipped    int
	compactMin int64
	closed     bool

	// Observability counters, kept under the same mutex the write path
	// already holds — polled by FileStats, they cost the hot path nothing.
	appends     uint64
	fsyncs      uint64
	compactions uint64
	onFsync     func(time.Duration) // optional fsync-latency observer
}

// slot is one live record in the index: its header and the location of
// its latest put line in the log, newline included.
type slot struct {
	hdr    Record
	off, n int64
}

// FileStats is a point-in-time census of the WAL backend, polled by the
// daemon's metrics collectors.
type FileStats struct {
	// Appends counts WAL lines written since open; Fsyncs how many of
	// them were made durable synchronously; Compactions how many rewrite
	// passes ran.
	Appends, Fsyncs, Compactions uint64
	// TornSkipped is how many corrupt entries recovery skipped at open.
	TornSkipped int
	// TotalBytes is the WAL file's current size; LiveBytes the size a
	// fresh compaction would leave; Records the live record count.
	TotalBytes, LiveBytes int64
	Records               int
}

// Stats returns the store's counters and sizes.
func (fs *File) Stats() FileStats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return FileStats{
		Appends:     fs.appends,
		Fsyncs:      fs.fsyncs,
		Compactions: fs.compactions,
		TornSkipped: fs.skipped,
		TotalBytes:  fs.totalBytes,
		LiveBytes:   fs.liveBytes,
		Records:     len(fs.index),
	}
}

// Len reports the live record count.
func (fs *File) Len() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.index)
}

// OnFsync installs an observer called with each synchronous append's
// fsync latency — the hook the daemon's latency histogram hangs off
// without this package importing the metrics layer. Call before serving
// traffic; fn runs under the store mutex and must be fast.
func (fs *File) OnFsync(fn func(time.Duration)) {
	fs.mu.Lock()
	fs.onFsync = fn
	fs.mu.Unlock()
}

// OpenFile opens (creating if needed) the WAL-backed store in dir and
// replays it. Corrupt entries are skipped, not fatal — Skipped reports how
// many. If replay found enough garbage to warrant it, the store compacts
// immediately so crash loops can't grow the file without bound.
func OpenFile(dir string) (*File, error) {
	return openFile(dir, DefaultCompactThreshold)
}

func openFile(dir string, compactMin int64) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: data dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: open WAL: %w", err)
	}
	fs := &File{
		dir:        dir,
		f:          f,
		index:      map[string]slot{},
		compactMin: compactMin,
	}
	if err := fs.replayLocked(); err != nil {
		f.Close()
		return nil, err
	}
	// The open may have created the file; fsync the directory so the WAL's
	// existence itself survives power loss.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	if err := fs.maybeCompactLocked(); err != nil {
		fs.f.Close()
		return nil, err
	}
	return fs, nil
}

// replayLocked builds the index from the log and repairs a torn tail.
func (fs *File) replayLocked() error {
	size, skipped, err := scanLines(fs.f, fs.applyLocked)
	if err != nil {
		return fmt.Errorf("jobstore: read WAL: %w", err)
	}
	fs.totalBytes, fs.skipped = size, skipped
	if size == 0 {
		return nil
	}
	// Repair a torn tail before appending anything: a SIGKILL mid-append
	// leaves the file ending without a newline, and a fresh entry written
	// straight after it would glue onto the fragment into one corrupt line
	// — silently losing a successfully fsynced Put on the next replay.
	// Terminating the tail with '\n' confines the damage to its own line
	// (which future replays skip) and keeps intact an entry that lost only
	// its trailing newline byte.
	var last [1]byte
	if _, err := fs.f.ReadAt(last[:], size-1); err != nil {
		return fmt.Errorf("jobstore: read WAL tail: %w", err)
	}
	if last[0] == '\n' {
		return nil
	}
	if _, err := fs.f.Write([]byte("\n")); err != nil {
		return fmt.Errorf("jobstore: repair WAL tail: %w", err)
	}
	if err := fs.f.Sync(); err != nil {
		return fmt.Errorf("jobstore: repair WAL tail: %w", err)
	}
	fs.totalBytes++
	return nil
}

// syncDir fsyncs a directory so a just-created or just-renamed file's
// directory entry is durable, not just its contents.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("jobstore: sync dir: %w", err)
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	if serr != nil {
		return fmt.Errorf("jobstore: sync dir: %w", serr)
	}
	return nil
}

// applyLocked folds one replayed entry, found at [off, off+n) in the log,
// into the index.
func (fs *File) applyLocked(e Entry, off, n int64) {
	switch e.Op {
	case "put":
		fs.setLocked(*e.Rec, off, n)
	case "del":
		fs.dropLocked(e.ID)
	}
}

// setLocked points the index at r's latest line. It is the one place a
// record's header and location change, and they change together.
func (fs *File) setLocked(r Record, off, n int64) {
	prev, existed := fs.index[r.ID]
	if !existed {
		fs.order = append(fs.order, r.ID)
	}
	fs.liveBytes += n - prev.n
	fs.index[r.ID] = slot{hdr: r.header(), off: off, n: n}
}

func (fs *File) dropLocked(id string) {
	s, ok := fs.index[id]
	if !ok {
		return
	}
	delete(fs.index, id)
	fs.liveBytes -= s.n
	for i, oid := range fs.order {
		if oid == id {
			fs.order = append(fs.order[:i], fs.order[i+1:]...)
			break
		}
	}
}

// appendLocked writes one entry to the log, fsyncing when sync is set,
// and returns the offset and length of the line it wrote.
func (fs *File) appendLocked(e Entry, sync bool) (off, n int64, err error) {
	b, err := EncodeEntry(e)
	if err != nil {
		return 0, 0, err
	}
	off = fs.totalBytes
	written, err := fs.f.Write(b)
	fs.totalBytes += int64(written)
	if err != nil {
		return 0, 0, fmt.Errorf("jobstore: append WAL: %w", err)
	}
	fs.appends++
	if sync {
		start := time.Now()
		if err := fs.f.Sync(); err != nil {
			return 0, 0, fmt.Errorf("jobstore: fsync WAL: %w", err)
		}
		fs.fsyncs++
		if fs.onFsync != nil {
			fs.onFsync(time.Since(start))
		}
	}
	return off, int64(len(b)), nil
}

// Put appends the record to the log and points the index at the new line.
// The append is fsynced when it creates the record or changes its State —
// the durability points that must survive a crash — while watermark-only
// updates ride on the OS cache and may be lost to a crash (recovery then
// just reports slightly older progress). The index moves only once the
// append (and its fsync) succeeded. A compaction that fails after that is
// reported, but the record is already in the log and stays visible.
func (fs *File) Put(r Record) error {
	if r.ID == "" {
		return fmt.Errorf("jobstore: record has no id")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return fmt.Errorf("jobstore: store is closed")
	}
	prev, existed := fs.index[r.ID]
	sync := !existed || prev.hdr.State != r.State
	off, n, err := fs.appendLocked(Entry{Op: "put", Rec: &r}, sync)
	if err != nil {
		return err
	}
	fs.setLocked(r, off, n)
	return fs.maybeCompactLocked()
}

// Get reads the record's latest line back from the log and re-verifies
// its checksum, so the returned record shares no memory with the store.
// Only the read holds the store's lock; the decode does not.
func (fs *File) Get(id string) (Record, bool, error) {
	line, ok, err := fs.readLine(id)
	if err != nil || !ok {
		return Record{}, ok, err
	}
	e, err := DecodeEntry(line)
	if err != nil {
		return Record{}, false, fmt.Errorf("jobstore: get %s: %w", id, err)
	}
	if e.Op != "put" || e.Rec.ID != id {
		return Record{}, false, fmt.Errorf("jobstore: get %s: index points at another entry", id)
	}
	return *e.Rec, true, nil
}

// readLine returns a copy of the record's latest line in the log.
func (fs *File) readLine(id string) ([]byte, bool, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, false, fmt.Errorf("jobstore: store is closed")
	}
	s, ok := fs.index[id]
	if !ok {
		return nil, false, nil
	}
	line := make([]byte, s.n)
	if _, err := fs.f.ReadAt(line, s.off); err != nil {
		return nil, false, fmt.Errorf("jobstore: get %s: read WAL: %w", id, err)
	}
	return line, true, nil
}

// List returns every record's header in first-Put order.
func (fs *File) List() ([]Record, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]Record, 0, len(fs.index))
	for _, id := range fs.order {
		out = append(out, fs.index[id].hdr)
	}
	return out, nil
}

// Delete appends a tombstone (fsynced — a deletion is a state transition)
// and removes the record. Deleting a missing id is a no-op.
func (fs *File) Delete(id string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return fmt.Errorf("jobstore: store is closed")
	}
	if _, ok := fs.index[id]; !ok {
		return nil
	}
	if _, _, err := fs.appendLocked(Entry{Op: "del", ID: id}, true); err != nil {
		return err
	}
	fs.dropLocked(id)
	return fs.maybeCompactLocked()
}

// Backend returns "file".
func (fs *File) Backend() string { return "file" }

// Skipped reports how many corrupt WAL entries recovery had to skip when
// the store was opened.
func (fs *File) Skipped() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.skipped
}

// Close fsyncs and closes the log. The store rejects writes and Gets
// afterwards.
func (fs *File) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil
	}
	fs.closed = true
	if err := fs.f.Sync(); err != nil {
		fs.f.Close()
		return err
	}
	return fs.f.Close()
}

// maybeCompactLocked rewrites the log down to the live record set when the
// file is past the threshold and more than half garbage. It copies each
// live record's line as it is on disk, after checking its checksum, so a
// compaction never re-encodes a record and never carries a damaged line
// forward. The rewrite goes through a temp file + fsync + atomic rename,
// so a crash mid-compaction leaves either the old log or the new one,
// never a mix.
func (fs *File) maybeCompactLocked() error {
	if fs.totalBytes < fs.compactMin || fs.totalBytes <= 2*fs.liveBytes {
		return nil
	}
	tmp, err := os.CreateTemp(fs.dir, walFileName+".compact-*")
	if err != nil {
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	offs, err := fs.copyLiveLocked(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(fs.dir, walFileName))
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	// The rename moved tmp's inode to the WAL path, and the open tmp handle
	// follows the inode — adopt it as the live WAL handle rather than
	// reopening by path, so there is no window where a failed reopen leaves
	// the store without a handle and permanently wedged. The handle's
	// offset already sits at end-of-file, which is all the (mutex-guarded)
	// append path needs.
	old := fs.f
	fs.f = tmp
	old.Close()
	for i, id := range fs.order {
		s := fs.index[id]
		s.off = offs[i]
		fs.index[id] = s
	}
	fs.totalBytes = fs.liveBytes // the file now holds exactly the live lines
	fs.compactions++
	// Make the rename itself durable: without a directory fsync a power
	// loss may resurrect the pre-compaction log.
	return syncDir(fs.dir)
}

// copyLiveLocked writes every live record's verified line to w in index
// order and returns the offset each landed at.
func (fs *File) copyLiveLocked(w io.Writer) ([]int64, error) {
	bw := bufio.NewWriterSize(w, 64<<10)
	offs := make([]int64, len(fs.order))
	var written int64
	var line []byte
	for i, id := range fs.order {
		s := fs.index[id]
		line = slices.Grow(line[:0], int(s.n))[:s.n]
		if _, err := fs.f.ReadAt(line, s.off); err != nil {
			return nil, fmt.Errorf("record %s at offset %d: %w", id, s.off, err)
		}
		if _, err := framePayload(line); err != nil {
			return nil, fmt.Errorf("record %s at offset %d: %w", id, s.off, err)
		}
		if _, err := bw.Write(line); err != nil {
			return nil, err
		}
		offs[i] = written
		written += s.n
	}
	return offs, bw.Flush()
}
