package cache

import (
	"iter"
	"testing"
)

// sliceSeq adapts a materialized batch stream to the iter.Seq form
// BuildOptScript consumes (it iterates the stream twice).
func sliceSeq(stream [][]int32) iter.Seq[[]int32] {
	return func(yield func([]int32) bool) {
		for _, b := range stream {
			if !yield(b) {
				return
			}
		}
	}
}

// driveStats replays a stream against k and returns (hits, misses, ops).
func driveStats(k *Cache, stream [][]int32) (int64, int64, int64) {
	var miss []int32
	var ops int64
	for _, batch := range stream {
		miss = k.LookupInto(miss[:0], batch)
		ops += int64(k.Update(miss))
	}
	h, m, _ := k.Stats()
	return h, m, ops
}

// TestOptHandComputedBelady pins the Opt kernel to a worked MIN example:
// capacity 2, stream [0 1][2 0][0 1][3]. The optimal prefill admits the
// two earliest-first-access vertices (0, 1); vertex 2 must bypass (its
// next use, never, is no sooner than the heap maximum) and so must 3.
// That yields 5 hits, 2 misses and zero cache operations — any eviction
// here would be strictly worse.
func TestOptHandComputedBelady(t *testing.T) {
	g := testGraph(t)
	stream := [][]int32{{0, 1}, {2, 0}, {0, 1}, {3}}
	script, err := BuildOptScript(g.NumVertices(), sliceSeq(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(script.occPos) != 7 {
		t.Fatalf("script holds %d accesses, want 7", len(script.occPos))
	}
	c, err := Build(Config{Policy: Opt, Capacity: 2, Script: script}, g)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || !c.Contains(0) || !c.Contains(1) {
		t.Fatalf("prefill wrong: len %d, resident(0)=%v resident(1)=%v",
			c.Len(), c.Contains(0), c.Contains(1))
	}
	h, m, ops := driveStats(c, stream)
	if h != 5 || m != 2 || ops != 0 {
		t.Errorf("got hits=%d misses=%d ops=%d, want 5/2/0", h, m, ops)
	}
	if !c.Contains(0) || !c.Contains(1) || c.Contains(2) || c.Contains(3) {
		t.Error("residency changed: MIN never evicts here")
	}
}

// TestOptDominatesOnlinePolicies is the upper-bound contract: on one
// shared access stream at equal capacity, the offline-optimal policy
// must achieve a hit rate no worse than every online policy (and the
// degree/frequency prefills). A violation fails — it would mean the
// Belady implementation mis-prices some eviction.
func TestOptDominatesOnlinePolicies(t *testing.T) {
	g := testGraph(t)
	stream := accessStream(t, g, 60, 256, 17)
	for _, capacity := range []int{50, 300, 1000} {
		script, err := BuildOptScript(g.NumVertices(), sliceSeq(stream))
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Build(Config{Policy: Opt, Capacity: capacity, Script: script}, g)
		if err != nil {
			t.Fatal(err)
		}
		oh, om, _ := driveStats(opt, stream)
		optRate := float64(oh) / float64(oh+om)
		for _, policy := range []Policy{Static, Freq, FIFO, LRU} {
			var k *Cache
			if policy == Freq {
				k, err = Build(Config{Policy: Freq, Capacity: capacity, Order: g.DegreeOrder()}, g)
			} else {
				k, err = New(policy, capacity, g)
			}
			if err != nil {
				t.Fatal(err)
			}
			h, m, _ := driveStats(k, stream)
			rate := float64(h) / float64(h+m)
			if optRate < rate {
				t.Errorf("cap %d: opt hit rate %.4f below %s's %.4f", capacity, optRate, policy, rate)
			}
		}
	}
}

// TestOptDeterministic: two Opt caches over the same script replay the
// same stream to bitwise-identical miss lists, residency and stats.
func TestOptDeterministic(t *testing.T) {
	g := testGraph(t)
	stream := accessStream(t, g, 30, 128, 29)
	mk := func() *Cache {
		script, err := BuildOptScript(g.NumVertices(), sliceSeq(stream))
		if err != nil {
			t.Fatal(err)
		}
		c, err := Build(Config{Policy: Opt, Capacity: 120, Script: script}, g)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk(), mk()
	var ma, mb []int32
	for bi, batch := range stream {
		ma = a.LookupInto(ma[:0], batch)
		mb = b.LookupInto(mb[:0], batch)
		if len(ma) != len(mb) {
			t.Fatalf("batch %d: miss count %d vs %d", bi, len(ma), len(mb))
		}
		for i := range ma {
			if ma[i] != mb[i] {
				t.Fatalf("batch %d: miss[%d] %d vs %d", bi, i, ma[i], mb[i])
			}
		}
		if oa, ob := a.Update(ma), b.Update(mb); oa != ob {
			t.Fatalf("batch %d: ops %d vs %d", bi, oa, ob)
		}
	}
	ha, sa, ua := a.Stats()
	hb, sb, ub := b.Stats()
	if ha != hb || sa != sb || ua != ub {
		t.Fatalf("stats diverge: (%d,%d,%d) vs (%d,%d,%d)", ha, sa, ua, hb, sb, ub)
	}
	if ha+sa == 0 {
		t.Fatal("no accesses recorded")
	}
}

// TestOptConstruction covers the policy's classification; its
// construction rejections live in TestNewValidation's table.
func TestOptConstruction(t *testing.T) {
	if !Opt.Valid() || !Opt.Dynamic() || Opt.Prefilled() {
		t.Errorf("policy classification wrong: valid=%v dynamic=%v prefilled=%v",
			Opt.Valid(), Opt.Dynamic(), Opt.Prefilled())
	}
	found := false
	for _, p := range Policies() {
		if p == Opt {
			found = true
		}
	}
	if !found {
		t.Error("Policies() does not list opt")
	}
}

// TestOptBeyondScriptHorizon: accesses past the compiled script are
// legal — they price as "never used again", never evict, and stay
// allocation-free (the alloc test covers the latter).
func TestOptBeyondScriptHorizon(t *testing.T) {
	g := testGraph(t)
	stream := accessStream(t, g, 10, 64, 41)
	script, err := BuildOptScript(g.NumVertices(), sliceSeq(stream))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(Config{Policy: Opt, Capacity: 40, Script: script}, g)
	if err != nil {
		t.Fatal(err)
	}
	driveStats(c, stream)
	resident := c.Len()
	h1, m1, _ := c.Stats()
	// Replay past the horizon: hits/misses still accrue, residency is
	// frozen (every candidate admission bypasses).
	if ops := c.Update(c.LookupInto(nil, stream[0])); ops != 0 {
		t.Errorf("beyond-horizon update performed %d ops", ops)
	}
	h2, m2, _ := c.Stats()
	if h2+m2 != h1+m1+int64(len(stream[0])) {
		t.Errorf("accounting stopped past the horizon: %d+%d vs %d+%d+%d", h2, m2, h1, m1, len(stream[0]))
	}
	if c.Len() != resident {
		t.Errorf("residency changed past the horizon: %d -> %d", resident, c.Len())
	}
}
