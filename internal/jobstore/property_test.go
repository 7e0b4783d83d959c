package jobstore

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestMemFileEquivalence drives the in-memory and file-backed stores
// through identical random op interleavings — put, get, list, update,
// delete, and (for the file store) a full close/reopen — and requires
// them to stay observationally equivalent at every step: the same List
// headers, with no payloads in either, and the same whole records from
// Get for every id. The reopen op is the property that matters:
// durability must be invisible through the Store interface. A small
// compaction threshold makes the file store move its lines many times, so
// every Get after a compaction reads through the rebuilt offsets. The CI
// race job runs this package, so the file store's locking is exercised
// under the race detector too.
func TestMemFileEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			mem := NewMem()
			file, err := openFile(t.TempDir(), 2048) // small threshold: reopens cross compactions
			if err != nil {
				t.Fatal(err)
			}
			defer func() { file.Close() }()
			var compactions uint64 // across reopens

			ids := []string{"job-1", "job-2", "job-3", "job-4", "job-5"}
			states := []string{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}
			randomRecord := func() Record {
				r := testRecord(ids[rng.Intn(len(ids))], states[rng.Intn(len(states))])
				r.Watermark = rng.Intn(1000)
				r.Seed = rng.Uint64()
				if rng.Intn(2) == 0 {
					r.ResultDigest = fmt.Sprintf("%016x", rng.Uint64())
				}
				if rng.Intn(3) == 0 {
					r.EventLog = []byte(fmt.Sprintf("{\"seq\":%d}\n", rng.Intn(50)))
				}
				if rng.Intn(3) == 0 {
					r.Result = json.RawMessage(fmt.Sprintf(`[{"coop":%d}]`, rng.Intn(50)))
				}
				return r
			}

			for op := 0; op < 400; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // put (insert or update)
					r := randomRecord()
					errM, errF := mem.Put(r), file.Put(r)
					if (errM == nil) != (errF == nil) {
						t.Fatalf("op %d: Put(%s) diverged: mem=%v file=%v", op, r.ID, errM, errF)
					}
				case 4, 5: // get
					id := ids[rng.Intn(len(ids))]
					rM, okM, errM := mem.Get(id)
					rF, okF, errF := file.Get(id)
					if okM != okF || (errM == nil) != (errF == nil) || !reflect.DeepEqual(rM, rF) {
						t.Fatalf("op %d: Get(%s) diverged:\n mem %v %+v\nfile %v %+v", op, id, okM, rM, okF, rF)
					}
				case 6: // delete
					id := ids[rng.Intn(len(ids))]
					errM, errF := mem.Delete(id), file.Delete(id)
					if (errM == nil) != (errF == nil) {
						t.Fatalf("op %d: Delete(%s) diverged: mem=%v file=%v", op, id, errM, errF)
					}
				case 7, 8: // list
					compareLists(t, op, mem, file)
					compareGets(t, op, ids, mem, file)
				case 9: // reopen the durable store; mem is its own baseline
					compactions += file.Stats().Compactions
					if err := file.Close(); err != nil {
						t.Fatalf("op %d: close: %v", op, err)
					}
					file, err = openFile(file.dir, 2048)
					if err != nil {
						t.Fatalf("op %d: reopen: %v", op, err)
					}
					if file.Skipped() != 0 {
						t.Fatalf("op %d: clean reopen skipped %d entries", op, file.Skipped())
					}
					compareLists(t, op, mem, file)
					compareGets(t, op, ids, mem, file)
				}
			}
			compareLists(t, -1, mem, file)
			compareGets(t, -1, ids, mem, file)
			if compactions+file.Stats().Compactions == 0 {
				t.Fatal("no compaction ran; the threshold no longer exercises rebuilt offsets")
			}
		})
	}
}

func compareGets(t *testing.T, op int, ids []string, a, b Store) {
	t.Helper()
	for _, id := range ids {
		ra, okA, errA := a.Get(id)
		rb, okB, errB := b.Get(id)
		if okA != okB || errA != nil || errB != nil || !reflect.DeepEqual(ra, rb) {
			t.Fatalf("op %d: Get(%s) diverged:\n mem %v %v %+v\nfile %v %v %+v", op, id, okA, errA, ra, okB, errB, rb)
		}
	}
}

func compareLists(t *testing.T, op int, a, b Store) {
	t.Helper()
	la, errA := a.List()
	lb, errB := b.List()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("op %d: List errors diverged: %v vs %v", op, errA, errB)
	}
	if len(la) == 0 && len(lb) == 0 {
		return
	}
	if !reflect.DeepEqual(la, lb) {
		t.Fatalf("op %d: List diverged:\n mem %+v\nfile %+v", op, la, lb)
	}
	for _, r := range la {
		if r.Spec != nil || r.Result != nil || r.EventLog != nil {
			t.Fatalf("op %d: List returned payloads for %s: %+v", op, r.ID, r)
		}
	}
}
