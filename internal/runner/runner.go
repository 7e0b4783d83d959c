// Package runner provides the bounded execution pool every CPU-bound
// fan-out in the module runs on. Callers flatten their work — typically
// the cross product of (scenario × replicate) — into one indexed queue of
// tasks; workers pull the next unit from the shared queue as they free up,
// so there is no barrier between scenarios: a worker that finishes the
// last replicate of one sweep point immediately steals the first
// replicate of the next.
//
// A Pool is a fixed capacity of execution slots, and it bounds every
// CPU-bound goroutine of the Session (package adhocga) that owns it.
// Pool.Run is the top-level entry: each task holds one slot while it runs,
// so any number of concurrent batches — several jobs of one Session —
// stay jointly bounded by the pool's size. Pool.Share is the nested entry,
// for a task that already holds a slot and fans out again (a replicate's
// per-generation island evaluations, a league's matches): the caller runs
// the tasks itself and borrows only slots that are free at that moment,
// so nesting never waits for a slot and cannot deadlock, and the bound
// holds across both levels.
//
// The pool makes no scheduling guarantees beyond boundedness, so tasks
// must not depend on execution order. Determinism is the caller's job and
// is cheap to provide: derive every task's random seed up front (before
// submitting), have each task write only to its own index, and aggregate
// after Run returns. The experiment package follows exactly that pattern
// for the paper's 60-repetition averages (§6.1), which is why its results
// are bit-identical at any parallelism level; the island engine
// (internal/island) follows it again one level down for per-generation
// island evaluation, and the league (internal/league) for its matches.
//
// # Error contract
//
// Every task runs even when some fail (cancellation excepted). The
// returned error joins every task failure via errors.Join in ascending
// task-index order — never in completion order — so error reporting is
// deterministic regardless of scheduling. When the context is cancelled
// before all tasks ran, the context's error is joined after the task
// errors; callers detect cancellation with errors.Is(err, context.Canceled).
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is one unit of work. The argument is the task's index in the
// flattened queue; implementations write results to caller-owned storage
// at that index.
type Task func(i int) error

// Options tune one Pool.Run or Pool.Share batch.
type Options struct {
	// Parallelism caps this batch's share of the pool; 0 means the whole
	// pool. It is also capped at the number of tasks. A negative count
	// fails Validate.
	Parallelism int
	// OnDone, when non-nil, is called as each task finishes (possibly
	// from multiple goroutines) with the number completed so far and the
	// total queue length.
	OnDone func(done, total int)
}

// Validate rejects a negative Parallelism. The pool treats one like 0;
// the job and request layers above call Validate, so a worker count that
// cannot exist fails before any work starts.
func (o Options) Validate() error {
	if o.Parallelism < 0 {
		return fmt.Errorf("parallelism must be >= 0 (0 means all cores), got %d", o.Parallelism)
	}
	return nil
}

// workers resolves the effective worker count for n tasks on a pool of
// size slots.
func (o Options) workers(n, size int) int {
	p := size
	if o.Parallelism > 0 && o.Parallelism < p {
		p = o.Parallelism
	}
	return max(1, min(p, n))
}

// batch tracks one Pool.Run/Share invocation: the claim counter, the
// per-task error slots, and the completion callback.
type batch struct {
	ctx  context.Context
	n    int
	task Task
	opts Options
	errs []error
	next atomic.Int64 // next unclaimed queue index
	done atomic.Int64
}

func newBatch(ctx context.Context, n int, task Task, opts Options) *batch {
	return &batch{ctx: ctx, n: n, task: task, opts: opts, errs: make([]error, n)}
}

// runNext claims and runs the next task. It returns false when the queue
// is drained or the context is cancelled.
func (b *batch) runNext() bool {
	if b.ctx.Err() != nil {
		return false
	}
	i := int(b.next.Add(1)) - 1
	if i >= b.n {
		return false
	}
	b.errs[i] = safeRun(b.task, i)
	// done counts completions for err()'s cancellation check, so it must
	// advance whether or not anyone is watching progress.
	done := int(b.done.Add(1))
	if b.opts.OnDone != nil {
		b.opts.OnDone(done, b.n)
	}
	return true
}

// unclaimed returns how many tasks no worker has claimed yet.
func (b *batch) unclaimed() int { return max(0, b.n-int(b.next.Load())) }

// err folds the batch outcome per the package error contract.
func (b *batch) err() error {
	joined := errors.Join(b.errs...)
	if int(b.done.Load()) < b.n {
		// Some tasks never ran; the only way that happens is cancellation.
		return errors.Join(joined, b.ctx.Err())
	}
	return joined
}

// safeRun converts a task panic into an error so one bad work unit cannot
// take down the whole pool (and with it every other unit's result).
func safeRun(task Task, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: task %d panicked: %v", i, r)
		}
	}()
	return task(i)
}

// Pool is a shared, session-lifetime execution capacity: a fixed number of
// slots that every batch submitted through it competes for. Concurrent
// Pool.Run calls — e.g. several jobs of one Session — interleave their
// tasks on the same slots, and tasks fanning out again through Share
// borrow from the same slots, so total CPU use stays bounded by the pool
// size no matter how many jobs are in flight, and a finishing batch
// immediately frees capacity for the others. The zero Pool is not usable;
// create with NewPool.
//
// Sharing slots changes wall-clock interleaving only, never results.
type Pool struct {
	slots chan struct{}
}

// NewPool returns a pool with the given number of execution slots; size
// ≤ 0 means min(GOMAXPROCS, NumCPU).
func NewPool(size int) *Pool {
	if size <= 0 {
		size = min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	return &Pool{slots: make(chan struct{}, size)}
}

// Size returns the pool's slot count.
func (p *Pool) Size() int { return cap(p.slots) }

// InUse returns how many slots are currently held by running tasks — the
// pool-occupancy reading behind the daemon's gauge. It is a point-in-time
// sample, exact only in quiescence.
func (p *Pool) InUse() int { return len(p.slots) }

// Run executes n tasks on the pool's shared slots and blocks until all
// have finished or the context is cancelled. Each task holds one slot
// while it runs. Cancellation is cooperative and task-granular: tasks
// already running are not interrupted (long tasks should watch ctx
// themselves), but no new task is claimed after ctx is done. The returned
// error follows the package error contract.
//
// A task must not call Run on the same pool: with every slot held by such
// tasks, none could proceed. It fans out with Share instead.
func (p *Pool) Run(ctx context.Context, n int, task Task, opts Options) error {
	if n <= 0 {
		return ctx.Err()
	}
	b := newBatch(ctx, n, task, opts)
	var wg sync.WaitGroup
	for w := opts.workers(n, p.Size()); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Acquire a shared slot per task, not per worker, so a
				// batch that is momentarily idle cannot starve concurrent
				// batches of capacity.
				select {
				case p.slots <- struct{}{}:
				case <-ctx.Done():
					return
				}
				ok := b.runNext()
				<-p.slots
				if !ok {
					return
				}
			}
		}()
	}
	wg.Wait()
	return b.err()
}

// Share executes n tasks from a goroutine that already holds one of the
// pool's slots — a task of Run, or a Share helper — and blocks until all
// have finished or the context is cancelled. The caller runs tasks itself,
// and before each one it hands every slot that is free right now to one
// more worker, up to Options.Parallelism workers in all; it never waits
// for a slot, so a Share under a fully held pool runs its tasks serially
// on the calling goroutine. Borrowed slots return to the pool when the
// queue drains. Cancellation and errors follow Run.
func (p *Pool) Share(ctx context.Context, n int, task Task, opts Options) error {
	if n <= 0 {
		return ctx.Err()
	}
	b := newBatch(ctx, n, task, opts)
	spare := opts.workers(n, p.Size()) - 1
	var wg sync.WaitGroup
	for {
		for spare > 0 && b.unclaimed() > 1 && p.tryAcquire() {
			spare--
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.slots }()
				for b.runNext() {
				}
			}()
		}
		if !b.runNext() {
			break
		}
	}
	wg.Wait()
	return b.err()
}

// tryAcquire takes a slot if one is free, without waiting.
func (p *Pool) tryAcquire() bool {
	select {
	case p.slots <- struct{}{}:
		return true
	default:
		return false
	}
}
