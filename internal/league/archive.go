package league

import (
	"fmt"
	"sort"
	"sync"

	"adhocga/internal/jobstore"
)

// RecordKind tags champion records in a jobstore so the archive can
// coexist with (and be distinguished from) job records.
const RecordKind = "champion"

// Archive is the hall of fame: a set of champions kept in memory for
// queries and written through to a jobstore.Store so they survive
// restarts. Champions ride the store's existing WAL machinery — framing,
// per-line checksums, torn-tail repair, compaction — as Kind "champion"
// records whose Spec is the self-checking codec envelope. The archive
// should own its store (a dedicated directory for the file backend); it
// is not designed to share one with the service's job records.
//
// All methods are safe for concurrent use.
type Archive struct {
	store jobstore.Store

	mu      sync.Mutex
	byID    map[string]Champion
	order   []string // first-Put order, mirrors the store's List order
	skipped int      // corrupt records dropped while loading
}

// NewArchive wraps a store, loading every existing champion record.
// Records that fail to decode (corruption that slipped past the WAL's
// own checksums, or foreign kinds) are skipped and counted, never fatal:
// a damaged champion must not take down the rest of the hall of fame.
func NewArchive(store jobstore.Store) (*Archive, error) {
	a := &Archive{store: store, byID: make(map[string]Champion)}
	recs, err := store.List()
	if err != nil {
		return nil, fmt.Errorf("league: load archive: %w", err)
	}
	for _, rec := range recs {
		if rec.Kind != RecordKind {
			a.skipped++
			continue
		}
		// List gives headers; the champion is the Spec payload.
		rec, ok, err := store.Get(rec.ID)
		if err != nil || !ok {
			a.skipped++
			continue
		}
		c, err := DecodeChampion(rec.Spec)
		if err != nil || c.ID != rec.ID {
			a.skipped++
			continue
		}
		a.byID[c.ID] = c
		a.order = append(a.order, c.ID)
	}
	return a, nil
}

// OpenDir opens (or creates) a file-backed archive in dir.
func OpenDir(dir string) (*Archive, error) {
	st, err := jobstore.OpenFile(dir)
	if err != nil {
		return nil, fmt.Errorf("league: open archive: %w", err)
	}
	a, err := NewArchive(st)
	if err != nil {
		st.Close()
		return nil, err
	}
	return a, nil
}

// NewMemArchive returns an archive over an in-memory store, for sessions
// that want checkpoints without durability.
func NewMemArchive() *Archive {
	a, _ := NewArchive(jobstore.NewMem()) // Mem.List never fails on empty
	return a
}

// Put validates, encodes, and persists a champion. Re-putting the same ID
// replaces the record (champion IDs are deterministic in their
// provenance, so a recovered job overwrites itself with identical bytes
// rather than duplicating).
func (a *Archive) Put(c Champion) error {
	env, err := EncodeChampion(c)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.store.Put(jobstore.Record{
		ID:    c.ID,
		Kind:  RecordKind,
		Spec:  env,
		Seed:  c.Seed,
		State: jobstore.StateDone,
	}); err != nil {
		return fmt.Errorf("league: archive put %s: %w", c.ID, err)
	}
	if _, ok := a.byID[c.ID]; !ok {
		a.order = append(a.order, c.ID)
	}
	a.byID[c.ID] = c
	return nil
}

// Get returns the champion with the given ID.
func (a *Archive) Get(id string) (Champion, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.byID[id]
	return c, ok
}

// List returns all champions in first-Put order (archival order, which is
// checkpoint order within a job). The slice is the caller's to keep.
func (a *Archive) List() []Champion {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Champion, 0, len(a.order))
	for _, id := range a.order {
		out = append(out, a.byID[id])
	}
	return out
}

// Select resolves champion IDs to champions. An empty ids slice selects
// the whole archive sorted by ID — a stable, store-order-independent
// default for league seating. Unknown IDs are an error, so a league over
// a mistyped champion fails loudly instead of silently shrinking.
func (a *Archive) Select(ids []string) ([]Champion, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(ids) == 0 {
		ids = make([]string, len(a.order))
		copy(ids, a.order)
		sort.Strings(ids)
	}
	out := make([]Champion, 0, len(ids))
	for _, id := range ids {
		c, ok := a.byID[id]
		if !ok {
			return nil, fmt.Errorf("league: unknown champion %q", id)
		}
		out = append(out, c)
	}
	return out, nil
}

// Len reports the number of archived champions.
func (a *Archive) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.byID)
}

// Skipped reports how many store records were dropped as corrupt or
// foreign while loading.
func (a *Archive) Skipped() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.skipped
}

// Backend names the underlying store's backend ("mem", "file").
func (a *Archive) Backend() string { return a.store.Backend() }

// Close releases the underlying store.
func (a *Archive) Close() error { return a.store.Close() }
