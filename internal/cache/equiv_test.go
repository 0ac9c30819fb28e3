package cache

import (
	"math/rand"
	"testing"

	"gnnavigator/internal/gen"
	"gnnavigator/internal/graph"
)

// accessStream builds a deterministic degree-skewed access pattern over
// g: batches of edge-walk endpoints, the same shape the samplers feed
// the cache.
func accessStream(t *testing.T, g *graph.Graph, batches, batchLen int, seed int64) [][]int32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	out := make([][]int32, batches)
	for b := range out {
		batch := make([]int32, 0, batchLen)
		for len(batch) < batchLen {
			v := int32(rng.Intn(n))
			if ns := g.Neighbors(v); len(ns) > 0 {
				v = ns[rng.Intn(len(ns))]
			}
			batch = append(batch, v)
		}
		out[b] = batch
	}
	return out
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(rand.New(rand.NewSource(3)), 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestKernelEquivalence pins the feature plane to its cache kernel for
// every policy at capacities 0, 1, 7 and 300: batch by batch, a source
// NewSource builds reports exactly the misses and update ops of the
// same kernel driven directly, and its Resident agrees with the
// kernel's Contains; at the end its hit rate matches and its
// transferred bytes price every miss at the row width. Policy None and
// capacity 0 take the uncached plane, which holds no cache at all.
func TestKernelEquivalence(t *testing.T) {
	g := featuredGraph(t)
	stream := accessStream(t, g, 60, 256, 11)
	script, err := BuildOptScript(g.NumVertices(), sliceSeq(stream))
	if err != nil {
		t.Fatal(err)
	}
	rowBytes := Float32.RowBytes(g.FeatDim)
	for _, policy := range Policies() {
		t.Run(string(policy), func(t *testing.T) {
			for _, capacity := range []int{0, 1, 7, 300} {
				cfg := Config{Policy: policy, Capacity: capacity, Order: g.DegreeOrder(), Script: script}
				c, err := Build(cfg, g)
				if err != nil {
					t.Fatal(err)
				}
				plane, err := NewSource(cfg, g)
				if err != nil {
					t.Fatal(err)
				}
				var miss []int32
				var bytes int64
				for bi, batch := range stream {
					miss = c.LookupInto(miss[:0], batch)
					ops := c.Update(miss)
					bytes += int64(len(miss)) * rowBytes
					if st := plane.Access(batch); st.Miss != len(miss) || st.CacheOps != ops {
						t.Fatalf("cap %d batch %d: plane reports %d misses, %d ops; kernel %d, %d",
							capacity, bi, st.Miss, st.CacheOps, len(miss), ops)
					}
					for _, v := range batch {
						if plane.Resident(v) != c.Contains(v) {
							t.Fatalf("cap %d batch %d: residency of %d diverges", capacity, bi, v)
						}
					}
				}
				if plane.HitRate() != c.HitRate() || plane.TransferredBytes() != bytes {
					t.Fatalf("cap %d: hit rate %v vs %v, bytes %d vs %d",
						capacity, plane.HitRate(), c.HitRate(), plane.TransferredBytes(), bytes)
				}
			}
		})
	}
}

// TestFreqPrefill covers Freq admission semantics: exactly the
// first capacity order entries become resident, bitset and slot table
// agree, and lookups never mutate residency.
func TestFreqPrefill(t *testing.T) {
	g := testGraph(t)
	order := []int32{42, 7, 1999, 3, 500}
	c, err := Build(Config{Policy: Freq, Capacity: 3, Order: order}, g)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 || c.residentBits() != 3 {
		t.Fatalf("Len = %d, bits = %d, want 3", c.Len(), c.residentBits())
	}
	for i, v := range order {
		want := i < 3
		if c.Contains(v) != want {
			t.Errorf("Contains(%d) = %v, want %v", v, !want, want)
		}
	}
	if ops := c.Update(c.LookupInto(nil, []int32{9, 10, 11})); ops != 0 {
		t.Errorf("freq cache performed %d update ops", ops)
	}
	if c.Contains(9) {
		t.Error("freq cache admitted at run time")
	}
}
