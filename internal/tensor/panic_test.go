package tensor

import (
	"errors"
	"strings"
	"testing"

	"gnnavigator/internal/faultinject"
	"gnnavigator/internal/leakcheck"
)

// mustRecoverWorkerPanic runs fn and asserts it panics with a
// *WorkerPanic whose Value message contains want.
func mustRecoverWorkerPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic propagated (want one containing %q)", want)
		}
		wp, ok := r.(*WorkerPanic)
		if !ok {
			t.Fatalf("panic value %T, want *WorkerPanic", r)
		}
		if !strings.Contains(wp.Error(), want) {
			t.Fatalf("panic %q does not contain %q", wp.Error(), want)
		}
		if len(wp.Stack) == 0 {
			t.Fatal("WorkerPanic lost the original stack")
		}
	}()
	fn()
}

// TestChaosParallelRangePanicContained: a panicking shard must surface
// on the dispatching goroutine as *WorkerPanic — after all sibling
// shards finished — and must not kill pool workers (subsequent
// dispatches still work).
func TestChaosParallelRangePanicContained(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(4)
	// flatGrain-sized shards: n must be >= 2*flatGrain or the loop runs
	// inline on the caller and no shard is ever dispatched.
	n := 8 * flatGrain
	mustRecoverWorkerPanic(t, "boom-shard", func() {
		ParallelRange(n, func(lo, hi int) {
			if lo > 0 { // only dispatched shards panic; dispatcher survives
				panic("boom-shard")
			}
		})
	})
	// The pool must still be functional afterwards.
	got := make([]int, n)
	ParallelRange(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			got[i] = i
		}
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("pool broken after contained panic: got[%d]=%d", i, v)
		}
	}
}

// TestChaosDispatcherShardPanicWaitsForSiblings: a panic on the
// dispatcher's own shard must still propagate (wrapped), not deadlock.
func TestChaosDispatcherShardPanicWaitsForSiblings(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(4)
	mustRecoverWorkerPanic(t, "boom-own", func() {
		ParallelRange(8*flatGrain, func(lo, hi int) {
			if lo == 0 {
				panic("boom-own")
			}
		})
	})
}

// TestChaosForEachIndexPanicContained: a panicking task stops the
// fan-out, all task goroutines exit, and the panic rethrows wrapped.
func TestChaosForEachIndexPanicContained(t *testing.T) {
	mustRecoverWorkerPanic(t, "boom-task", func() {
		ForEachIndex(100, 4, func(i int) {
			if i == 7 {
				panic("boom-task")
			}
		})
	})
	leakcheck.Check(t, leakcheck.FanOutTask)
}

// TestChaosForEachIndexErrContainsPanics: the fallible fan-out converts
// panics (its own tasks' and nested kernel dispatches') to errors.
func TestChaosForEachIndexErrContainsPanics(t *testing.T) {
	err := ForEachIndexErr(50, 4, func(i int) error {
		if i == 3 {
			panic("boom-err")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom-err") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	// Nested: the task runs a sharded kernel whose shard panics.
	defer SetParallelism(Parallelism())
	SetParallelism(4)
	err = ForEachIndexErr(2, 1, func(i int) error {
		ParallelRange(8*flatGrain, func(lo, hi int) {
			if lo > 0 {
				panic("boom-nested")
			}
		})
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom-nested") {
		t.Fatalf("nested kernel panic not converted to error: %v", err)
	}
}

// TestChaosTensorWorkerInjection: the armed tensor/worker point fires
// inside pool jobs and is contained like any shard panic.
func TestChaosTensorWorkerInjection(t *testing.T) {
	defer faultinject.Reset()
	defer SetParallelism(Parallelism())
	SetParallelism(4)
	faultinject.Arm(faultinject.TensorWorker, faultinject.Spec{Kind: faultinject.Panic, Count: 1})
	mustRecoverWorkerPanic(t, "injected panic", func() {
		ForEachIndex(64, 4, func(int) {})
	})
	faultinject.Reset()
	// Error kind at a site with no error path propagates as a panic too,
	// wrapped so errors.Is still sees the sentinel through ForEachIndexErr.
	faultinject.Arm(faultinject.TensorWorker, faultinject.Spec{Kind: faultinject.Error, Count: 1})
	err := ForEachIndexErr(64, 4, func(int) error { return nil })
	if err == nil {
		t.Fatal("injected error did not propagate through ForEachIndexErr")
	}
	var wp *WorkerPanic
	if errors.As(err, &wp) {
		if e, ok := wp.Value.(error); !ok || !errors.Is(e, faultinject.ErrInjected) {
			t.Fatalf("contained panic lost the injected sentinel: %v", wp.Value)
		}
	}
}
