package cache

import (
	"errors"
	"testing"

	"gnnavigator/internal/faultinject"
)

// TestChaosUpdateInjectedError: an Error fault at the cache/shard point
// surfaces as a panic wrapping ErrInjected (Update has no error return;
// the pipeline's stage containment converts it back into an error — see
// the pipeline chaos suite for that half).
func TestChaosUpdateInjectedError(t *testing.T) {
	defer faultinject.Reset()
	c, err := New(LRU, 4, starGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.CacheShard, faultinject.Spec{Kind: faultinject.Error, After: 1, Count: 1})
	c.Update(c.LookupInto(nil, []int32{1, 2})) // hit 0: scheduled to pass
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("armed cache/shard fault did not fire")
			}
			if err, ok := r.(error); !ok || !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("Update panicked with %v, want ErrInjected", r)
			}
		}()
		c.Update(c.LookupInto(nil, []int32{3})) // hit 1: fires
	}()
	// The schedule is exhausted (Count 1): the cache keeps working and
	// the interrupted admission was simply skipped, not half-applied.
	c.Update(c.LookupInto(nil, []int32{4}))
	if !c.Contains(4) {
		t.Error("cache stopped admitting after a contained injected fault")
	}
}

// TestChaosUpdateDelayPreservesResults: a Delay fault slows Update but
// leaves residency and counters identical to an unfaulted run.
func TestChaosUpdateDelayPreservesResults(t *testing.T) {
	defer faultinject.Reset()
	g := starGraph(t)
	run := func() (hits, misses, updates int64) {
		c, err := New(LRU, 4, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range [][]int32{{1, 2}, {3, 1}, {4, 5, 2}, {1, 3}} {
			c.Update(c.LookupInto(nil, batch))
		}
		return c.Stats()
	}
	h0, m0, u0 := run()
	faultinject.Arm(faultinject.CacheShard, faultinject.Spec{Kind: faultinject.Delay})
	h1, m1, u1 := run()
	if h0 != h1 || m0 != m1 || u0 != u1 {
		t.Errorf("delay fault changed results: (%d,%d,%d) vs (%d,%d,%d)", h0, m0, u0, h1, m1, u1)
	}
}
