package tensor

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"gnnavigator/internal/faultinject"
)

// Workers never block waiting for other shards: a dispatcher that has
// finished its own shard drains further jobs from the queue while its
// batch is outstanding (helping / work-stealing wait). That makes
// nested dispatch — a kernel or ParallelRange call issued from inside a
// worker callback — safe by construction instead of a deadlock on the
// fixed-size pool.

// The package-level worker pool that backs every sharded kernel. Workers
// are started lazily on first parallel call and live for the process
// lifetime; parallelFor feeds them contiguous index shards. All sharding
// is over disjoint output ranges with a fixed per-element accumulation
// order, so results are bitwise-identical at every parallelism level
// (including the serial n<=1 path).

// maxWorkers bounds the pool; parallelism requests above it are clamped.
const maxWorkers = 64

var (
	parallelism atomic.Int32

	poolMu  sync.Mutex
	jobs    chan job
	workers int
)

type job struct {
	fn     func(lo, hi int)
	lo, hi int
	// pending counts the batch's outstanding shards; the last decrement
	// closes done, releasing the dispatcher's parked wait.
	pending *atomic.Int64
	done    chan struct{}
	// panicked captures the batch's first worker panic (as *WorkerPanic)
	// so the dispatcher can rethrow it on its own goroutine after the
	// batch drains. Without the capture, a panicking shard would kill its
	// pool worker, the batch counter would never reach zero, and the
	// dispatcher would park on done forever.
	panicked *atomic.Value
}

// WorkerPanic wraps a panic recovered on a pool worker (or a ForEachIndex
// task goroutine) and rethrown on the dispatching goroutine — the value
// a containment layer above (the pipeline producer, ForEachIndexErr)
// sees when a sharded kernel or fanned-out task panics. It implements
// error so those layers can propagate it as one.
type WorkerPanic struct {
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time (the
	// rethrow loses the original stack, so it is preserved here).
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("tensor: worker panic: %v", p.Value)
}

// Unwrap exposes an error-valued panic (e.g. an injected fault thrown by
// a site without an error return) so errors.Is/As see through the
// capture.
func (p *WorkerPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// asWorkerPanic wraps a recovered value, passing through values that are
// already wrapped (a nested dispatch rethrowing into an outer one).
func asWorkerPanic(r any) *WorkerPanic {
	if wp, ok := r.(*WorkerPanic); ok {
		return wp
	}
	return &WorkerPanic{Value: r, Stack: debug.Stack()}
}

func runJob(j job) {
	// The decrement must happen even when fn panics (via the deferred
	// recovery), or the batch never completes; the capture keeps the pool
	// worker itself alive.
	defer func() {
		if r := recover(); r != nil {
			j.panicked.CompareAndSwap(nil, asWorkerPanic(r))
		}
		if j.pending.Add(-1) == 0 {
			close(j.done)
		}
	}()
	if err := faultinject.Fire(faultinject.TensorWorker); err != nil {
		panic(err)
	}
	j.fn(j.lo, j.hi)
}

func init() { parallelism.Store(int32(min(runtime.GOMAXPROCS(0), maxWorkers))) }

// SetParallelism sets the worker count used by sharded kernels. n <= 1
// selects the serial path (no goroutines touched), which is also the
// deterministic reference the equivalence tests compare against. The
// default is GOMAXPROCS, capped at maxWorkers.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	if n > maxWorkers {
		n = maxWorkers
	}
	parallelism.Store(int32(n))
}

// Parallelism reports the current worker count.
func Parallelism() int { return int(parallelism.Load()) }

// WithParallelism installs n as the process-wide worker count and
// returns the function that restores the previous value (a no-op when
// n <= 0, i.e. "no override"). This is the one implementation of the
// apply-once/restore-once contract; callers that fan work out
// concurrently must hold a single WithParallelism scope around the
// whole fan-out rather than nesting per-task scopes, whose interleaved
// restores could stick.
func WithParallelism(n int) (restore func()) {
	if n <= 0 {
		return func() {}
	}
	prev := Parallelism()
	SetParallelism(n)
	return func() { SetParallelism(prev) }
}

// ensureWorkers grows the pool to at least n resident workers.
func ensureWorkers(n int) {
	poolMu.Lock()
	defer poolMu.Unlock()
	if jobs == nil {
		jobs = make(chan job, 4*maxWorkers)
	}
	for workers < n {
		workers++
		go func() {
			for j := range jobs {
				runJob(j)
			}
		}()
	}
}

// ParallelRange shards an elementwise loop over [0, n) across the worker
// pool. Exported for sibling packages (nn, model) whose hot loops shard
// the same way the kernels here do: disjoint ranges, deterministic
// per-element work, so results are independent of the worker count.
func ParallelRange(n int, fn func(lo, hi int)) { parallelFor(n, flatGrain, fn) }

// ForEachIndex runs fn(i) for every i in [0, n) with up to `workers`
// invocations in flight (the calling goroutine participates). It is the
// coarse-grained companion to the sharded kernels: items are pulled from
// a shared atomic counter, so expensive, variable-cost tasks — a full
// backend profiling run, an estimator prediction — load-balance instead
// of being pinned to contiguous shards. workers <= 0 selects the
// process-wide Parallelism(); workers == 1 (or n <= 1) runs inline with
// no goroutines. fn receives each index exactly once and must write any
// result to an index-stamped slot; callers that do so observe output
// identical to the serial loop at every worker count. Nested kernel
// dispatches from inside fn share the package pool safely.
func ForEachIndex(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = Parallelism()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := faultinject.Fire(faultinject.TensorWorker); err != nil {
				panic(err)
			}
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var panicked atomic.Value
	// Each task runs under a recovery guard: a panicking task is captured
	// (first wins), the remaining tasks are skipped, and the panic is
	// rethrown as *WorkerPanic on the calling goroutine after every task
	// goroutine has exited — mirroring the kernel pool's containment, so
	// a panicking fanned-out run can never strand its siblings' WaitGroup.
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, asWorkerPanic(r))
			}
		}()
		if err := faultinject.Fire(faultinject.TensorWorker); err != nil {
			panic(err)
		}
		fn(i)
	}
	drain := func() {
		for panicked.Load() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			call(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r)
	}
}

// ForEachIndexErr is ForEachIndex for fallible items: once any fn
// returns an error, not-yet-started items are skipped — mirroring a
// serial loop's early return, which matters when each item is expensive
// (a backend profiling run) or the failure would repeat per item. The
// lowest-index recorded error is returned; index-stamped output written
// before the failure is partial and must be discarded by the caller.
//
// Panics — fn's own, or a *WorkerPanic rethrown by a kernel dispatch
// nested inside fn — are contained here and returned as errors, so a
// fan-out of expensive fallible tasks (calibration profiling, DSE
// prediction) degrades to a clean failure instead of crashing the
// process.
func ForEachIndexErr(n, workers int, fn func(i int) error) (err error) {
	if n <= 0 {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			if wp, ok := r.(*WorkerPanic); ok {
				err = wp
				return
			}
			err = fmt.Errorf("tensor: task panic: %v", r)
		}
	}()
	errs := make([]error, n)
	var failed atomic.Bool
	ForEachIndex(n, workers, func(i int) {
		if failed.Load() {
			return
		}
		if err := fn(i); err != nil {
			errs[i] = err
			failed.Store(true)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ParallelRows is ParallelRange with a row-level grain, for loops whose
// body processes a whole matrix row (or similarly sized unit) per index.
func ParallelRows(n int, fn func(lo, hi int)) { parallelFor(n, rowGrain, fn) }

// parallelFor runs fn over [0, n) split into contiguous shards, one per
// worker, executing shard 0 on the calling goroutine. grain is the
// minimum iteration count per shard worth dispatching; below 2*grain the
// loop runs inline. fn must be safe for concurrent disjoint ranges.
func parallelFor(n, grain int, fn func(lo, hi int)) {
	p := Parallelism()
	if grain < 1 {
		grain = 1
	}
	if p <= 1 || n < 2*grain {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	shards := p
	if max := n / grain; shards > max {
		shards = max
	}
	if shards < 2 {
		fn(0, n)
		return
	}
	ensureWorkers(shards - 1)
	chunk := (n + shards - 1) / shards
	// Count the dispatched shards up front: incrementing pending per
	// shard would let the counter transiently reach zero (closing done
	// early, then double-closing) whenever an early shard finishes
	// before the next one is queued. Shards with lo >= n are an empty
	// suffix, so the dispatched ones are exactly s = 1..njobs.
	njobs := 0
	for s := 1; s < shards; s++ {
		if s*chunk < n {
			njobs++
		}
	}
	if njobs == 0 {
		fn(0, n)
		return
	}
	var pending atomic.Int64
	pending.Store(int64(njobs))
	done := make(chan struct{})
	var panicked atomic.Value
	for s := 1; s <= njobs; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		j := job{fn: fn, lo: lo, hi: hi, pending: &pending, done: done, panicked: &panicked}
		select {
		case jobs <- j:
		default:
			// Queue full (deep nesting or many sibling dispatchers):
			// run inline rather than blocking the send, which could
			// leave no goroutine free to drain the channel.
			runJob(j)
		}
	}
	// The dispatcher's own shard runs under the same recovery as
	// dispatched jobs: a panic here must still wait for the outstanding
	// shards (which share the caller's buffers) before propagating.
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, asWorkerPanic(r))
			}
		}()
		fn(0, chunk)
	}()
	// Helping wait: drain queued jobs (this batch's, a sibling's, or a
	// nested dispatch's) instead of blocking, so the pool cannot deadlock
	// on re-entrant use. Once the queue is empty the remaining shards are
	// mid-flight on workers and no helping is possible, so park on done
	// rather than spinning against the CPUs those shards need.
	for pending.Load() > 0 {
		select {
		case j := <-jobs:
			runJob(j)
		default:
			select {
			case j := <-jobs:
				runJob(j)
			case <-done:
			}
		}
	}
	// Containment: rethrow the batch's first shard panic on the calling
	// goroutine, after every shard has stopped touching the caller's
	// data. The pool workers themselves never die, and the panic
	// surfaces exactly where the serial loop's would have.
	if r := panicked.Load(); r != nil {
		panic(r)
	}
}
