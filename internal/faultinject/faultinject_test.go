package faultinject

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// TestDisarmedIsNoOp: the production state — nothing armed — must let
// every entry point fall through untouched.
func TestDisarmedIsNoOp(t *testing.T) {
	Reset()
	if n := armedN.Load(); n != 0 {
		t.Fatalf("%d points armed with an empty registry", n)
	}
	if err := Fire(PipelineSample); err != nil {
		t.Fatalf("disarmed Fire returned %v", err)
	}
	buf := []byte{1, 2, 3}
	Mutate(PlanSave, buf)
	if !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Fatalf("disarmed Mutate touched the buffer: %v", buf)
	}
}

// TestErrorSchedule: After skips exactly that many hits, Count bounds
// firings, and fired errors wrap ErrInjected.
func TestErrorSchedule(t *testing.T) {
	defer Reset()
	Arm(CacheShard, Spec{Kind: Error, After: 2, Count: 2})
	var fired int
	for i := 0; i < 6; i++ {
		err := Fire(CacheShard)
		switch {
		case i < 2 || i >= 4:
			if err != nil {
				t.Fatalf("hit %d: unexpected fire: %v", i, err)
			}
		default:
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: want ErrInjected, got %v", i, err)
			}
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want 2", fired)
	}
}

// TestPanicKind: Panic fires as a panic, not an error.
func TestPanicKind(t *testing.T) {
	defer Reset()
	Arm(TensorWorker, Spec{Kind: Panic, Count: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected injected panic")
		}
	}()
	Fire(TensorWorker)
}

// TestDelayKind: Delay sleeps and returns nil.
func TestDelayKind(t *testing.T) {
	defer Reset()
	Arm(PipelineGather, Spec{Kind: Delay, Sleep: 5 * time.Millisecond, Count: 1})
	start := time.Now()
	if err := Fire(PipelineGather); err != nil {
		t.Fatalf("delay fired as error: %v", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("delay slept %v, want >= 5ms", d)
	}
}

// TestMutateDeterministic: the same spec corrupts the same bits every
// time, and a different seed corrupts different ones.
func TestMutateDeterministic(t *testing.T) {
	defer Reset()
	base := make([]byte, 64)
	run := func(seed uint64) []byte {
		Reset()
		Arm(PlanSave, Spec{Kind: Corrupt, Seed: seed, Bits: 3, Count: 1})
		buf := append([]byte(nil), base...)
		Mutate(PlanSave, buf)
		return buf
	}
	a, b := run(7), run(7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different corruption")
	}
	if bytes.Equal(a, base) {
		t.Fatal("armed Mutate left the buffer untouched")
	}
	if c := run(8); bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical corruption")
	}
}

// TestMutateIgnoresNonCorruptKinds: an Error-armed point must not eat a
// Mutate call's schedule or touch bytes.
func TestMutateIgnoresNonCorruptKinds(t *testing.T) {
	defer Reset()
	Arm(PlanSave, Spec{Kind: Error})
	buf := []byte{42}
	Mutate(PlanSave, buf)
	if buf[0] != 42 {
		t.Fatal("non-corrupt spec mutated bytes")
	}
	if !errors.Is(Fire(PlanSave), ErrInjected) {
		t.Fatal("error spec did not fire after Mutate call")
	}
}

// TestHitsSurviveReset: the cumulative hit log is what chaos tests use
// to prove a site was exercised, so Reset must not clear it.
func TestHitsSurviveReset(t *testing.T) {
	defer Reset()
	before := Hits(PlanLoad)
	Arm(PlanLoad, Spec{Kind: Delay, Sleep: time.Microsecond})
	Fire(PlanLoad)
	Fire(PlanLoad)
	Reset()
	if got := Hits(PlanLoad) - before; got != 2 {
		t.Fatalf("Hits delta %d, want 2", got)
	}
}
