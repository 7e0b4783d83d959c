package runner

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunExecutesEveryTask(t *testing.T) {
	const n = 100
	var ran [n]atomic.Int32
	err := Run(n, func(i int) error {
		ran[i].Add(1)
		return nil
	}, Options{Parallelism: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Errorf("task %d ran %d times", i, got)
		}
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

func TestRunBoundsParallelism(t *testing.T) {
	const n, workers = 64, 4
	var active, peak atomic.Int32
	err := Run(n, func(int) error {
		if a := active.Add(1); a > peak.Load() {
			peak.Store(a)
		}
		defer active.Add(-1)
		return nil
	}, Options{Parallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent tasks, bound is %d", p, workers)
	}
}

func TestRunJoinsAllErrorsInIndexOrder(t *testing.T) {
	err3 := errors.New("boom 3")
	err7 := errors.New("boom 7")
	err := Run(10, func(i int) error {
		switch i {
		case 3:
			return err3
		case 7:
			return err7
		}
		return nil
	}, Options{Parallelism: 10})
	if !errors.Is(err, err3) || !errors.Is(err, err7) {
		t.Fatalf("joined error %v is missing a task error", err)
	}
	// The ordering contract: task errors appear in ascending task-index
	// order regardless of which finished first.
	msg := err.Error()
	if i3, i7 := strings.Index(msg, "boom 3"), strings.Index(msg, "boom 7"); i3 < 0 || i7 < 0 || i3 > i7 {
		t.Errorf("error %q not in task-index order", msg)
	}
}

func TestRunKeepsGoingAfterError(t *testing.T) {
	var ran atomic.Int32
	err := Run(20, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("early failure")
		}
		return nil
	}, Options{Parallelism: 2})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if got := ran.Load(); got != 20 {
		t.Errorf("%d tasks ran after early failure, want all 20", got)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	err := Run(4, func(i int) error {
		if i == 2 {
			panic("kaboom")
		}
		return nil
	}, Options{Parallelism: 4})
	if err == nil {
		t.Fatal("panic not converted to error")
	}
	if want := "task 2 panicked"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

func TestRunProgressCallback(t *testing.T) {
	const n = 9
	var mu sync.Mutex
	seen := map[int]bool{}
	var last int
	err := Run(n, func(int) error { return nil }, Options{
		Parallelism: 3,
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
}

func TestRunZeroTasks(t *testing.T) {
	if err := Run(0, func(int) error { return errors.New("never") }, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkersResolution(t *testing.T) {
	if w := (Options{Parallelism: 8}).Workers(3); w != 3 {
		t.Errorf("workers capped to %d, want 3", w)
	}
	if w := (Options{Parallelism: 2}).Workers(100); w != 2 {
		t.Errorf("workers = %d, want 2", w)
	}
	if w := (Options{}).Workers(1000); w < 1 {
		t.Errorf("default workers = %d", w)
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
	err := Run(3, func(i int) error {
		switch i {
		case 0:
			<-release
		case 2:
			bRan.Store(true)
			close(release)
		}
		return nil
	}, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bRan.Load() {
		t.Error("group-B unit never ran")
	}
}

func TestRunContextCancellationStopsClaiming(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := RunContext(ctx, 100, func(i int) error {
		if ran.Add(1) == 3 {
			cancel()
		}
		return nil
	}, Options{Parallelism: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= 100 {
		t.Errorf("all %d tasks ran despite cancellation", got)
	}
}

func TestRunContextJoinsTaskErrorsWithCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	taskErr := errors.New("task failed")
	err := RunContext(ctx, 50, func(i int) error {
		if i == 0 {
			cancel()
			return taskErr
		}
		return nil
	}, Options{Parallelism: 1})
	if !errors.Is(err, taskErr) || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want both the task error and context.Canceled", err)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := RunContext(ctx, 10, func(int) error { ran.Add(1); return nil }, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d tasks ran on a pre-cancelled context", ran.Load())
	}
}

func TestPoolBoundsConcurrencyAcrossBatches(t *testing.T) {
	const slots = 3
	p := NewPool(slots)
	if p.Size() != slots {
		t.Fatalf("pool size %d, want %d", p.Size(), slots)
	}
	var active, peak atomic.Int32
	task := func(int) error {
		if a := active.Add(1); a > peak.Load() {
			peak.Store(a)
		}
		defer active.Add(-1)
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
	if got := peak.Load(); got > slots {
		t.Errorf("observed %d concurrent tasks across batches, pool bound is %d", got, slots)
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
	if NewPool(0).Size() < 1 {
		t.Error("default pool has no slots")
	}
}

func BenchmarkRunOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Run(256, func(int) error { return nil }, Options{Parallelism: 8})
	}
}

// TestRunContextCompletedBatchIgnoresLateCancellation pins the err()
// contract when no progress callback is installed: a batch whose every
// task completed must return nil even if the context is cancelled after
// the last task finished.
func TestRunContextCompletedBatchIgnoresLateCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := RunContext(ctx, 8, func(i int) error {
		if ran.Add(1) == 8 {
			cancel() // fires after the final task's body, before err()
		}
		return nil
	}, Options{Parallelism: 1}) // OnDone deliberately nil
	if err != nil {
		t.Fatalf("completed batch reported %v", err)
	}
}
