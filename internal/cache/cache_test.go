package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gnnavigator/internal/gen"
	"gnnavigator/internal/graph"
)

func starGraph(t *testing.T) *graph.Graph {
	t.Helper()
	// Vertex 0 is the hub (degree 9); leaves have degree 1.
	adj := make([][]int32, 10)
	for i := int32(1); i < 10; i++ {
		adj[0] = append(adj[0], i)
		adj[i] = []int32{0}
	}
	g, err := graph.FromAdjList(adj)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// vertexSpace is an edgeless graph over n vertices: all a cache reads of
// its graph is the vertex count that sizes its slot table.
func vertexSpace(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.NewCSR(make([]int64, n+1), nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestNewValidation is every construction rejection in one table:
// Build, and the builders that resolve through the same rules (New,
// NewSource), refuse each case.
func TestNewValidation(t *testing.T) {
	g := testGraph(t)
	script := &OptScript{n: g.NumVertices()}
	for _, tc := range []struct {
		name string
		cfg  Config
		g    *graph.Graph
	}{
		{"nil graph", Config{Policy: LRU, Capacity: 4}, nil},
		{"unknown policy", Config{Policy: "bogus", Capacity: 4}, g},
		{"negative capacity", Config{Policy: FIFO, Capacity: -1}, g},
		{"freq without an admission order", Config{Policy: Freq, Capacity: 3}, g},
		{"opt without a script", Config{Policy: Opt, Capacity: 3}, g},
		{"opt with an order but no script", Config{Policy: Opt, Capacity: 3, Order: []int32{1, 2, 3}}, g},
		{"opt, negative capacity", Config{Policy: Opt, Capacity: -1, Script: &OptScript{}}, g},
		{"unknown precision", Config{Policy: LRU, Capacity: 10, Precision: "fp8"}, g},
		{"opt, unknown precision", Config{Policy: Opt, Capacity: 10, Precision: "fp8", Script: script}, g},
	} {
		if _, err := Build(tc.cfg, tc.g); err == nil {
			t.Errorf("Build accepted %s", tc.name)
		}
		if _, err := NewSource(tc.cfg, tc.g); err == nil {
			t.Errorf("NewSource accepted %s", tc.name)
		}
		if tc.cfg.Order == nil && tc.cfg.Script == nil && tc.cfg.Precision == "" {
			if _, err := New(tc.cfg.Policy, tc.cfg.Capacity, tc.g); err == nil {
				t.Errorf("New accepted %s", tc.name)
			}
		}
	}
}

func TestNoneAlwaysMisses(t *testing.T) {
	c, err := New(None, 100, vertexSpace(t, 64))
	if err != nil {
		t.Fatal(err)
	}
	nodes := []int32{1, 2, 3}
	miss := c.LookupInto(nil, nodes)
	if len(miss) != 3 {
		t.Errorf("miss = %v, want all", miss)
	}
	c.Update(miss)
	miss = c.LookupInto(nil, nodes)
	if len(miss) != 3 {
		t.Errorf("None policy cached something: %v", miss)
	}
	if c.HitRate() != 0 {
		t.Errorf("HitRate = %v, want 0", c.HitRate())
	}
}

func TestStaticCachesHighestDegree(t *testing.T) {
	g := starGraph(t)
	c, err := New(Static, 1, g)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Contains(0) {
		t.Error("hub not resident in static cache")
	}
	miss := c.LookupInto(nil, []int32{0, 1, 2})
	if len(miss) != 2 {
		t.Errorf("miss = %v, want [1 2]", miss)
	}
	if ops := c.Update(miss); ops != 0 {
		t.Errorf("static Update performed %d ops, want 0", ops)
	}
	if got := c.HitRate(); got != 1.0/3 {
		t.Errorf("HitRate = %v, want 1/3", got)
	}
}

func TestFIFOEvictsInOrder(t *testing.T) {
	c, err := New(FIFO, 2, vertexSpace(t, 64))
	if err != nil {
		t.Fatal(err)
	}
	c.Update(c.LookupInto(nil, []int32{1, 2})) // cache: 1,2
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// Access 1 (hit, but FIFO ignores recency), then insert 3 -> evicts 1.
	c.LookupInto(nil, []int32{1})
	c.Update(c.LookupInto(nil, []int32{3}))
	if c.Contains(1) {
		t.Error("FIFO kept 1; should evict oldest regardless of recency")
	}
	if !c.Contains(2) || !c.Contains(3) {
		t.Error("FIFO resident set wrong")
	}
}

func TestLRURespectsRecency(t *testing.T) {
	c, err := New(LRU, 2, vertexSpace(t, 64))
	if err != nil {
		t.Fatal(err)
	}
	c.Update(c.LookupInto(nil, []int32{1, 2})) // cache: 1,2
	c.LookupInto(nil, []int32{1})              // 1 is now most recent
	c.Update(c.LookupInto(nil, []int32{3}))    // evicts 2
	if !c.Contains(1) {
		t.Error("LRU evicted recently used 1")
	}
	if c.Contains(2) {
		t.Error("LRU kept least recently used 2")
	}
}

func TestUpdateCountsOps(t *testing.T) {
	c, err := New(FIFO, 2, vertexSpace(t, 64))
	if err != nil {
		t.Fatal(err)
	}
	// First two admissions: 2 ops, no eviction.
	if ops := c.Update([]int32{1, 2}); ops != 2 {
		t.Errorf("ops = %d, want 2", ops)
	}
	// Third: evict + admit = 2 ops.
	if ops := c.Update([]int32{3}); ops != 2 {
		t.Errorf("ops = %d, want 2 (evict+admit)", ops)
	}
	_, _, updates := c.Stats()
	if updates != 4 {
		t.Errorf("cumulative updates = %d, want 4", updates)
	}
}

func TestZeroCapacityDynamic(t *testing.T) {
	c, err := New(LRU, 0, vertexSpace(t, 64))
	if err != nil {
		t.Fatal(err)
	}
	if ops := c.Update([]int32{1, 2}); ops != 0 {
		t.Errorf("zero-capacity cache performed %d update ops", ops)
	}
	if len(c.LookupInto(nil, []int32{1})) != 1 {
		t.Error("zero-capacity cache produced a hit")
	}
}

// Property (LRU): residency never exceeds capacity, and because hits
// refresh recency, a batch no larger than the capacity is fully resident
// right after Lookup+Update — a re-lookup yields zero misses.
//
// Note this is deliberately NOT asserted for FIFO: under FIFO a batch
// vertex that *hit* may still be evicted by admissions from the same
// batch (hits do not refresh insertion order), which is exactly the
// anomaly that makes FIFO cheaper but weaker than LRU.
func TestLRUBatchResidencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(20)
		c, err := New(LRU, capacity, vertexSpace(t, 64))
		if err != nil {
			return false
		}
		for round := 0; round < 10; round++ {
			batch := make([]int32, 1+rng.Intn(capacity)) // fits in cache
			for i := range batch {
				batch[i] = int32(rng.Intn(50))
			}
			c.Update(c.LookupInto(nil, batch))
			if c.Len() > capacity {
				return false
			}
			if miss := c.LookupInto(nil, batch); len(miss) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property (FIFO): the capacity bound always holds and misses are a
// subset of the batch.
func TestFIFOCapacityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(20)
		c, err := New(FIFO, capacity, vertexSpace(t, 64))
		if err != nil {
			return false
		}
		for round := 0; round < 10; round++ {
			batch := make([]int32, 1+rng.Intn(30))
			inBatch := map[int32]bool{}
			for i := range batch {
				batch[i] = int32(rng.Intn(50))
				inBatch[batch[i]] = true
			}
			miss := c.LookupInto(nil, batch)
			for _, v := range miss {
				if !inBatch[v] {
					return false
				}
			}
			c.Update(miss)
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestStaticHitRateGrowsWithCapacity reproduces the PaGraph premise: on a
// power-law graph, a bigger static cache yields a higher hit rate under
// degree-weighted access.
func TestStaticHitRateGrowsWithCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g, err := gen.BarabasiAlbert(rng, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Degree-weighted accesses: walk random edges.
	accesses := make([]int32, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := int32(rng.Intn(1000))
		ns := g.Neighbors(v)
		if len(ns) == 0 {
			continue
		}
		accesses = append(accesses, ns[rng.Intn(len(ns))])
	}
	rate := func(capacity int) float64 {
		c, err := New(Static, capacity, g)
		if err != nil {
			t.Fatal(err)
		}
		c.LookupInto(nil, accesses)
		return c.HitRate()
	}
	small, large := rate(50), rate(500)
	if large <= small {
		t.Errorf("hit rate did not grow with capacity: %v -> %v", small, large)
	}
	if large < 0.3 {
		t.Errorf("500/1000 static cache hit rate %.2f too low for power-law access", large)
	}
}
