//go:build !race

package cache

import (
	"math/rand"
	"testing"

	"gnnavigator/internal/gen"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/tensor"
)

// Allocation-regression bounds for the array-backed cache and the
// feature plane: steady state (after a warm-up pass grows the slot
// table, the miss scratch and the gather buffer), lookup+update and the
// full gather path must allocate nothing. Guarded !race because the
// race runtime adds bookkeeping allocations.

func TestLookupUpdateZeroAllocs(t *testing.T) {
	g, err := gen.BarabasiAlbert(rand.New(rand.NewSource(7)), 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	stream := accessStream(t, g, 16, 512, 19)
	for _, policy := range Policies() {
		c, err := kernelFor(t, policy, 400, g, stream)
		if err != nil {
			t.Fatal(err)
		}
		var miss []int32
		drive := func() {
			for _, batch := range stream {
				miss = c.LookupInto(miss[:0], batch)
				c.Update(miss)
			}
		}
		drive() // warm up: slot table growth, miss scratch
		if allocs := testing.AllocsPerRun(10, drive); allocs != 0 {
			t.Errorf("%s: lookup+update allocates %.1f/op in steady state", policy, allocs)
		}
	}
}

func TestGatherIntoZeroAllocs(t *testing.T) {
	g, err := gen.BarabasiAlbert(rand.New(rand.NewSource(7)), 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.AttachFeatures(rand.New(rand.NewSource(9)), g, make([]int32, g.NumVertices()), 2,
		gen.FeatureSpec{Dim: 16, Noise: 0.5}); err != nil {
		t.Fatal(err)
	}
	stream := accessStream(t, g, 16, 512, 19)
	// Parallelism 1 keeps the row-copy loop inline: the worker pool's
	// dispatch bookkeeping (one signal channel per sharded call) is the
	// pool's cost, not the gather path's, and would drown the regression
	// this test guards — that the sources themselves reuse every buffer.
	// The fused dequant kernels must hold the bound at every precision:
	// widening reuses the pre-bound kernel, so compact widths add no
	// per-batch allocations.
	defer tensor.WithParallelism(1)()
	for _, prec := range Precisions() {
		c, err := NewAtPrecision(LRU, 400, g, prec)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []FeatureSource{NewCachedSource(c, g), newSource(nil, g, prec)} {
			feats := tensor.GrowDense(nil, 512, g.FeatDim)
			drive := func() {
				for _, batch := range stream {
					feats, _ = src.GatherInto(feats, batch)
				}
			}
			drive() // warm up scratch
			if allocs := testing.AllocsPerRun(10, drive); allocs != 0 {
				t.Errorf("%s/%T: GatherInto allocates %.1f/op in steady state", prec, src, allocs)
			}
		}
	}
}

// kernelFor builds a policy's cache: Freq takes g's degree order as its
// admission order, Opt a script compiled from the access stream itself
// (driving past the script's horizon is legal — every remaining access
// prices as "never used again" and bypasses, allocation-free).
func kernelFor(t *testing.T, policy Policy, capacity int, g *graph.Graph, stream [][]int32) (*Cache, error) {
	t.Helper()
	script, err := BuildOptScript(g.NumVertices(), sliceSeq(stream))
	if err != nil {
		return nil, err
	}
	return Build(Config{Policy: policy, Capacity: capacity, Order: g.DegreeOrder(), Script: script}, g)
}
