// Package runner provides the bounded worker machinery every experiment
// workload fans out over. Callers flatten their work — typically the cross
// product of (scenario × replicate) — into one indexed queue of tasks;
// workers pull the next unit from the shared queue as they free up, so
// there is no barrier between scenarios: a worker that finishes the last
// replicate of one sweep point immediately steals the first replicate of
// the next.
//
// Two entry points share that queue discipline. Run/RunContext execute one
// batch over transient per-call workers. Pool is the session-scoped form:
// a fixed capacity of execution slots that every batch submitted to it —
// from any number of concurrently running jobs — draws on, so a Session
// (package adhocga) can multiplex many jobs without oversubscribing the
// machine. Either way the pool makes no scheduling guarantees beyond
// boundedness, so tasks must not depend on execution order. Determinism is
// the caller's job and is cheap to provide: derive every task's random
// seed up front (before submitting), have each task write only to its own
// index, and aggregate after Run returns. The experiment package follows
// exactly that pattern for the paper's 60-repetition averages (§6.1),
// which is why its results are bit-identical at any parallelism level; the
// island engine (internal/island) follows it again one level down for
// per-generation island evaluation.
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

// Options tune a Run invocation.
type Options struct {
	// Parallelism is the worker count; 0 means GOMAXPROCS. It is capped
	// at the number of tasks. A negative count fails Validate.
	Parallelism int
	// OnDone, when non-nil, is called as each task finishes (possibly
	// from multiple goroutines) with the number completed so far and the
	// total queue length.
	OnDone func(done, total int)
}

// Validate rejects a negative Parallelism. Run treats one like 0; the job
// and request layers above call Validate, so a worker count that cannot
// exist fails before any work starts.
func (o Options) Validate() error {
	if o.Parallelism < 0 {
		return fmt.Errorf("parallelism must be >= 0 (0 means all cores), got %d", o.Parallelism)
	}
	return nil
}

// Workers resolves the effective worker count for n tasks.
func (o Options) Workers(n int) int {
	p := o.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Run executes n tasks over a bounded worker pool and blocks until all
// have finished. See RunContext for the error contract.
func Run(n int, task Task, opts Options) error {
	return RunContext(context.Background(), n, task, opts)
}

// RunContext executes n tasks over a bounded worker pool and blocks until
// all have finished or the context is cancelled. Cancellation is
// cooperative and task-granular: tasks already running are not interrupted
// (long tasks should watch ctx themselves), but no new task is claimed
// after ctx is done. The returned error follows the package error
// contract: all task errors joined in task-index order, with ctx.Err()
// appended when cancellation prevented tasks from running.
func RunContext(ctx context.Context, n int, task Task, opts Options) error {
	if n <= 0 {
		return ctx.Err()
	}
	b := newBatch(ctx, n, task, opts)
	workers := opts.Workers(n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b.runNext() {
			}
		}()
	}
	wg.Wait()
	return b.err()
}

// batch tracks one Run/Pool.Run invocation: the claim counter, the
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
// tasks on the same slots, so total CPU use stays bounded by the pool size
// no matter how many jobs are in flight, and a finishing batch immediately
// frees capacity for the others. The zero Pool is not usable; create with
// NewPool.
//
// Scheduling, error, and determinism contracts are identical to
// RunContext; sharing slots changes wall-clock interleaving only, never
// results.
type Pool struct {
	slots chan struct{}
}

// NewPool returns a pool with the given number of execution slots; size
// ≤ 0 means GOMAXPROCS.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
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
// have finished or the context is cancelled. Options.Parallelism
// additionally caps this batch's share of the pool. The error contract is
// RunContext's.
func (p *Pool) Run(ctx context.Context, n int, task Task, opts Options) error {
	if n <= 0 {
		return ctx.Err()
	}
	b := newBatch(ctx, n, task, opts)
	workers := opts.Workers(n)
	if workers > p.Size() {
		workers = p.Size()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
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
