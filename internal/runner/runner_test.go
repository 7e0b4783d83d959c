package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// entries runs a contract case through both of a Pool's entry points: Run
// from outside the pool, and Share from inside a task holding a slot.
var entries = []struct {
	name string
	run  func(p *Pool, ctx context.Context, n int, task Task, opts Options) error
}{
	{"Run", (*Pool).Run},
	{"Share", func(p *Pool, ctx context.Context, n int, task Task, opts Options) error {
		var err error
		if outer := p.Run(ctx, 1, func(int) error {
			err = p.Share(ctx, n, task, opts)
			return nil
		}, Options{}); outer != nil {
			return outer
		}
		return err
	}},
}

func TestRunExecutesEveryTask(t *testing.T) {
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			const n = 100
			var ran [n]atomic.Int32
			err := e.run(NewPool(7), context.Background(), n, func(i int) error {
				ran[i].Add(1)
				return nil
			}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Errorf("task %d ran %d times", i, got)
				}
			}
		})
	}
}

func TestOptionsValidate(t *testing.T) {
	for _, p := range []int{0, 1, 64} {
		if err := (Options{Parallelism: p}).Validate(); err != nil {
			t.Errorf("parallelism %d: %v", p, err)
		}
	}
	if err := (Options{Parallelism: -1}).Validate(); err == nil {
		t.Error("negative parallelism accepted")
	}
}

// peakCounter records the high-water mark of concurrently running tasks.
type peakCounter struct{ active, peak atomic.Int32 }

func (c *peakCounter) enter() {
	a := c.active.Add(1)
	for p := c.peak.Load(); a > p && !c.peak.CompareAndSwap(p, a); p = c.peak.Load() {
	}
}

func (c *peakCounter) leave() { c.active.Add(-1) }

func TestRunBoundsParallelism(t *testing.T) {
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			const n, workers = 64, 4
			var c peakCounter
			err := e.run(NewPool(8), context.Background(), n, func(int) error {
				c.enter()
				defer c.leave()
				runtime.Gosched()
				return nil
			}, Options{Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			if p := c.peak.Load(); p > workers {
				t.Errorf("observed %d concurrent tasks, bound is %d", p, workers)
			}
		})
	}
}

func TestRunJoinsAllErrorsInIndexOrder(t *testing.T) {
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			err3 := errors.New("boom 3")
			err7 := errors.New("boom 7")
			err := e.run(NewPool(10), context.Background(), 10, func(i int) error {
				switch i {
				case 3:
					return err3
				case 7:
					return err7
				}
				return nil
			}, Options{})
			if !errors.Is(err, err3) || !errors.Is(err, err7) {
				t.Fatalf("joined error %v is missing a task error", err)
			}
			// The ordering contract: task errors appear in ascending
			// task-index order regardless of which finished first.
			msg := err.Error()
			if i3, i7 := strings.Index(msg, "boom 3"), strings.Index(msg, "boom 7"); i3 < 0 || i7 < 0 || i3 > i7 {
				t.Errorf("error %q not in task-index order", msg)
			}
		})
	}
}

func TestRunKeepsGoingAfterError(t *testing.T) {
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			var ran atomic.Int32
			err := e.run(NewPool(2), context.Background(), 20, func(i int) error {
				ran.Add(1)
				if i == 0 {
					return errors.New("early failure")
				}
				return nil
			}, Options{})
			if err == nil {
				t.Fatal("error swallowed")
			}
			if got := ran.Load(); got != 20 {
				t.Errorf("%d tasks ran after early failure, want all 20", got)
			}
		})
	}
}

func TestRunRecoversPanics(t *testing.T) {
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			err := e.run(NewPool(4), context.Background(), 4, func(i int) error {
				if i == 2 {
					panic("kaboom")
				}
				return nil
			}, Options{})
			if err == nil {
				t.Fatal("panic not converted to error")
			}
			if want := "task 2 panicked"; !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		})
	}
}

func TestRunProgressCallback(t *testing.T) {
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			const n = 9
			var mu sync.Mutex
			seen := map[int]bool{}
			var last int
			err := e.run(NewPool(3), context.Background(), n, func(int) error { return nil }, Options{
				OnDone: func(done, total int) {
					if total != n {
						t.Errorf("total = %d", total)
					}
					mu.Lock()
					seen[done] = true
					if done > last {
						last = done
					}
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != n || last != n {
				t.Errorf("progress values %v, want 1..%d", seen, n)
			}
		})
	}
}

func TestRunZeroTasks(t *testing.T) {
	for _, e := range entries {
		if err := e.run(NewPool(1), context.Background(), 0, func(int) error { return errors.New("never") }, Options{}); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	for _, tc := range []struct{ par, n, size, want int }{
		{8, 3, 8, 3},     // capped at the task count
		{2, 100, 8, 2},   // Parallelism caps the batch's share
		{0, 1000, 4, 4},  // 0 takes the whole pool
		{16, 1000, 4, 4}, // never past the pool
		{0, 0, 4, 1},     // at least one worker
	} {
		if w := (Options{Parallelism: tc.par}).workers(tc.n, tc.size); w != tc.want {
			t.Errorf("workers(par %d, n %d, size %d) = %d, want %d", tc.par, tc.n, tc.size, w, tc.want)
		}
	}
}

func TestRunNoBarrierBetweenGroups(t *testing.T) {
	// Two "scenarios" flattened into one queue: tasks 0–1 are group A,
	// task 2 is group B. Task 0 blocks until group B has started, so the
	// run can only finish if the worker that completes task 1 steals the
	// group-B unit while a group-A unit is still in flight — impossible
	// under a per-group barrier.
	release := make(chan struct{})
	var bRan atomic.Bool
	err := NewPool(2).Run(context.Background(), 3, func(i int) error {
		switch i {
		case 0:
			<-release
		case 2:
			bRan.Store(true)
			close(release)
		}
		return nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bRan.Load() {
		t.Error("group-B unit never ran")
	}
}

func TestRunContextCancellationStopsClaiming(t *testing.T) {
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var ran atomic.Int32
			err := e.run(NewPool(1), ctx, 100, func(i int) error {
				if ran.Add(1) == 3 {
					cancel()
				}
				return nil
			}, Options{})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if got := ran.Load(); got >= 100 {
				t.Errorf("all %d tasks ran despite cancellation", got)
			}
		})
	}
}

func TestRunContextJoinsTaskErrorsWithCancellation(t *testing.T) {
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			taskErr := errors.New("task failed")
			err := e.run(NewPool(1), ctx, 50, func(i int) error {
				if i == 0 {
					cancel()
					return taskErr
				}
				return nil
			}, Options{})
			if !errors.Is(err, taskErr) || !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want both the task error and context.Canceled", err)
			}
		})
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var ran atomic.Int32
			err := e.run(NewPool(2), ctx, 10, func(int) error { ran.Add(1); return nil }, Options{})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if ran.Load() != 0 {
				t.Errorf("%d tasks ran on a pre-cancelled context", ran.Load())
			}
		})
	}
}

func TestPoolBoundsConcurrencyAcrossBatches(t *testing.T) {
	const slots = 3
	p := NewPool(slots)
	if p.Size() != slots {
		t.Fatalf("pool size %d, want %d", p.Size(), slots)
	}
	var c peakCounter
	task := func(int) error {
		c.enter()
		defer c.leave()
		return nil
	}
	// Two concurrent batches, each asking for more workers than the pool
	// has slots: the shared bound must still hold.
	var wg sync.WaitGroup
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Run(context.Background(), 64, task, Options{Parallelism: 8}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := c.peak.Load(); got > slots {
		t.Errorf("observed %d concurrent tasks across batches, pool bound is %d", got, slots)
	}
}

// TestShareNestedStaysWithinPool fans out from inside every task of
// concurrent Run batches: the nested tasks, each on a goroutine that holds
// a slot, never outnumber the pool's slots.
func TestShareNestedStaysWithinPool(t *testing.T) {
	const slots = 3
	p := NewPool(slots)
	var c peakCounter
	var inner atomic.Int32
	nested := func(int) error {
		c.enter()
		defer c.leave()
		inner.Add(1)
		runtime.Gosched()
		return nil
	}
	var wg sync.WaitGroup
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Run(context.Background(), 6, func(int) error {
				return p.Share(context.Background(), 20, nested, Options{})
			}, Options{})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := c.peak.Load(); got > slots {
		t.Errorf("observed %d concurrent nested tasks, pool bound is %d", got, slots)
	}
	if got := inner.Load(); got != 2*6*20 {
		t.Errorf("%d nested tasks ran, want %d", got, 2*6*20)
	}
	if got := p.InUse(); got != 0 {
		t.Errorf("%d slots still held after every batch returned", got)
	}
}

// TestShareBorrowsFreeSlot: a Share whose caller holds one slot of two
// runs its tasks on both. The two tasks wait for each other, so the batch
// finishes only if the free slot was borrowed.
func TestShareBorrowsFreeSlot(t *testing.T) {
	p := NewPool(2)
	var arrived sync.WaitGroup
	arrived.Add(2)
	met := make(chan struct{})
	go func() { arrived.Wait(); close(met) }()
	err := p.Run(context.Background(), 1, func(int) error {
		return p.Share(context.Background(), 2, func(int) error {
			arrived.Done()
			select {
			case <-met:
				return nil
			case <-time.After(10 * time.Second):
				return errors.New("the other task never ran alongside")
			}
		}, Options{})
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShareFinishesWhenEverySlotHeld: with every slot held by a task that
// fans out, no Share can borrow, and each runs its tasks on its caller.
func TestShareFinishesWhenEverySlotHeld(t *testing.T) {
	const slots = 2
	p := NewPool(slots)
	// barrier makes every task of the batch wait for the others: a slot
	// stays held until its task returns, so between barriers all are.
	barrier := func() func() {
		var wg sync.WaitGroup
		wg.Add(slots)
		return func() { wg.Done(); wg.Wait() }
	}
	holding, checked, done := barrier(), barrier(), barrier()
	var c peakCounter
	var inner atomic.Int32
	err := p.Run(context.Background(), slots, func(int) error {
		holding()
		return p.Share(context.Background(), 50, func(i int) error {
			c.enter()
			defer c.leave()
			inner.Add(1)
			if i == 0 {
				// Task 0 runs on the caller (nothing was free to borrow).
				checked()
				if got := p.InUse(); got != slots {
					return fmt.Errorf("%d slots held while both Shares run, want %d", got, slots)
				}
				done()
			}
			return nil
		}, Options{})
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := inner.Load(); got != slots*50 {
		t.Errorf("%d nested tasks ran, want %d", got, slots*50)
	}
	if got := c.peak.Load(); got > slots {
		t.Errorf("observed %d concurrent nested tasks, pool bound is %d", got, slots)
	}
}

func TestPoolRunsEveryTaskAndJoinsErrors(t *testing.T) {
	p := NewPool(2)
	const n = 40
	var ran [n]atomic.Int32
	wantErr := errors.New("slot 5")
	err := p.Run(context.Background(), n, func(i int) error {
		ran[i].Add(1)
		if i == 5 {
			return wantErr
		}
		return nil
	}, Options{})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want the task error", err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Errorf("task %d ran %d times", i, got)
		}
	}
}

func TestPoolCancellation(t *testing.T) {
	p := NewPool(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	err := p.Run(ctx, 100, func(i int) error {
		if ran.Add(1) == 2 {
			cancel()
		}
		return nil
	}, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= 100 {
		t.Errorf("all tasks ran despite cancellation")
	}
}

func TestPoolDefaultSize(t *testing.T) {
	if got, want := NewPool(0).Size(), min(runtime.GOMAXPROCS(0), runtime.NumCPU()); got != want {
		t.Errorf("default pool has %d slots, want min(GOMAXPROCS, NumCPU) = %d", got, want)
	}
}

func BenchmarkRunOverhead(b *testing.B) {
	p := NewPool(8)
	for i := 0; i < b.N; i++ {
		_ = p.Run(context.Background(), 256, func(int) error { return nil }, Options{})
	}
}

// TestRunContextCompletedBatchIgnoresLateCancellation pins the err()
// contract when no progress callback is installed: a batch whose every
// task completed must return nil even if the context is cancelled after
// the last task finished.
func TestRunContextCompletedBatchIgnoresLateCancellation(t *testing.T) {
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var ran atomic.Int32
			err := e.run(NewPool(1), ctx, 8, func(i int) error {
				if ran.Add(1) == 8 {
					cancel() // fires after the final task's body, before err()
				}
				return nil
			}, Options{}) // OnDone deliberately nil
			if err != nil {
				t.Fatalf("completed batch reported %v", err)
			}
		})
	}
}
