package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gnnavigator/internal/faultinject"
	"gnnavigator/internal/leakcheck"
)

// Teardown is checked with leakcheck: a leaked producer goroutine is
// identified by its frames, so the tensor pool's resident workers —
// spawned lazily, possibly during the very run under test — never read
// as leaks.

// TestChaosConsumerErrorNoGoroutineLeak: a consumer error mid-epoch must
// shut the producer down, leave no goroutine behind, and deliver no batch
// after the failing one — with a plain sampler and with one coupled to
// the cache the producer updates (coupleSampler).
func TestChaosConsumerErrorNoGoroutineLeak(t *testing.T) {
	for _, coupled := range []bool{false, true} {
		t.Run(fmt.Sprintf("coupled=%v", coupled), func(t *testing.T) {
			cfg := testConfig(t)
			cfg.Prefetch = 4
			if coupled {
				coupleSampler(t, &cfg)
			}
			boom := errors.New("consumer boom")
			n := 0
			done := false
			err := Run(cfg, func(b *Batch) error {
				if done {
					t.Error("batch delivered after consumer error")
				}
				n++
				if n == 5 {
					done = true
					return boom
				}
				return nil
			}, nil)
			if !errors.Is(err, boom) {
				t.Fatalf("Run returned %v, want consumer error", err)
			}
			if n != 5 {
				t.Fatalf("consumed %d batches, want 5", n)
			}
			leakcheck.Check(t, leakcheck.PipelineProducer)
		})
	}
}

// TestChaosInjectedStageErrors arms the sampler and gather injection
// points in turn and asserts the run degrades to a clean error — wrapping
// the sentinel, after a teardown that leaks nothing — at the inline path
// and a deep prefetch, with a plain and a cache-coupled sampler.
func TestChaosInjectedStageErrors(t *testing.T) {
	for _, point := range []faultinject.Point{faultinject.PipelineSample, faultinject.PipelineGather} {
		for _, prefetch := range []int{0, 4} {
			for _, coupled := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/prefetch=%d/coupled=%v", point, prefetch, coupled), func(t *testing.T) {
					defer faultinject.Reset()
					cfg := testConfig(t)
					cfg.Epochs = 2
					cfg.Prefetch = prefetch
					if coupled {
						coupleSampler(t, &cfg)
					}
					faultinject.Arm(point, faultinject.Spec{Kind: faultinject.Error, After: 3, Count: 1})
					n := 0
					err := Run(cfg, func(b *Batch) error { n++; return nil }, nil)
					if !errors.Is(err, faultinject.ErrInjected) {
						t.Fatalf("Run returned %v, want injected error", err)
					}
					if n > 3 {
						t.Fatalf("consumed %d batches past the injected failure at hit 3", n)
					}
					leakcheck.Check(t, leakcheck.PipelineProducer)
				})
			}
		}
	}
}

// TestChaosStagePanicContained: an injected panic inside the producer
// goroutine must come back as an error from Run — never crash the
// process or strand the consumer.
func TestChaosStagePanicContained(t *testing.T) {
	for _, prefetch := range []int{0, 4} {
		t.Run(fmt.Sprintf("prefetch=%d", prefetch), func(t *testing.T) {
			defer faultinject.Reset()
			cfg := testConfig(t)
			cfg.Epochs = 2
			cfg.Prefetch = prefetch
			faultinject.Arm(faultinject.PipelineSample, faultinject.Spec{Kind: faultinject.Panic, After: 2, Count: 1})
			err := Run(cfg, func(b *Batch) error { return nil }, nil)
			if err == nil || !strings.Contains(err.Error(), "injected panic") {
				t.Fatalf("Run returned %v, want contained injected panic", err)
			}
			leakcheck.Check(t, leakcheck.PipelineProducer)
		})
	}
}

// TestChaosConsumerPanicContained: a panic on the consumer side (model
// compute, a rethrown kernel *WorkerPanic) also converts to an error
// after the producer tears down.
func TestChaosConsumerPanicContained(t *testing.T) {
	cfg := testConfig(t)
	cfg.Prefetch = 3
	n := 0
	err := Run(cfg, func(b *Batch) error {
		n++
		if n == 4 {
			panic("consumer boom")
		}
		return nil
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "consumer boom") {
		t.Fatalf("Run returned %v, want contained consumer panic", err)
	}
	leakcheck.Check(t, leakcheck.PipelineProducer)
}

// TestChaosContextCancel: cancelling the run context stops the pipeline
// at batch granularity with ctx.Err() and a full teardown, at every
// depth and with a cache-coupled sampler — and never ends the partial
// epoch it was cancelled in.
func TestChaosContextCancel(t *testing.T) {
	for _, prefetch := range []int{0, 4} {
		for _, coupled := range []bool{false, true} {
			t.Run(fmt.Sprintf("prefetch=%d/coupled=%v", prefetch, coupled), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cfg := testConfig(t)
				cfg.Prefetch = prefetch
				if coupled {
					coupleSampler(t, &cfg)
				}
				cfg.Ctx = ctx
				n, ends := 0, 0
				err := Run(cfg, func(b *Batch) error {
					n++
					if n == 3 {
						cancel()
					}
					return nil
				}, func(int) error { ends++; return nil })
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Run returned %v, want context.Canceled", err)
				}
				if ends != 0 {
					t.Fatalf("cancelled run ended %d epoch(s)", ends)
				}
				leakcheck.Check(t, leakcheck.PipelineProducer)
			})
		}
	}
}

// TestChaosContextDeadline: an already-expired deadline yields
// DeadlineExceeded before any batch is delivered, inline and async.
func TestChaosContextDeadline(t *testing.T) {
	for _, prefetch := range []int{0, 2} {
		t.Run(fmt.Sprintf("prefetch=%d", prefetch), func(t *testing.T) {
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel()
			cfg := testConfig(t)
			cfg.Prefetch = prefetch
			cfg.Ctx = ctx
			err := Run(cfg, func(b *Batch) error {
				t.Error("batch delivered under an expired deadline")
				return nil
			}, nil)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Run returned %v, want context.DeadlineExceeded", err)
			}
			leakcheck.Check(t, leakcheck.PipelineProducer)
		})
	}
}

// TestChaosDelayOnlySlowsRun: a Delay fault is a slow gather, not a
// failed one — the run must still complete with every batch delivered.
func TestChaosDelayOnlySlowsRun(t *testing.T) {
	defer faultinject.Reset()
	cfg := testConfig(t)
	cfg.Epochs = 1
	cfg.Prefetch = 2
	ref := 0
	if err := Run(cfg, func(b *Batch) error { ref++; return nil }, nil); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.PipelineGather, faultinject.Spec{Kind: faultinject.Delay, Sleep: time.Millisecond, Count: 3})
	got := 0
	if err := Run(cfg, func(b *Batch) error { got++; return nil }, nil); err != nil {
		t.Fatalf("delayed run failed: %v", err)
	}
	if got != ref {
		t.Fatalf("delayed run delivered %d batches, reference %d", got, ref)
	}
}
