//go:build !race

package sample

import (
	"math/rand"
	"testing"

	"gnnavigator/internal/gen"
)

// Allocation-regression bounds for the map-free batch assembly. Steady
// state (after one warm-up call grows the frontier tables and scratch), a
// Sample call may allocate only what the returned MiniBatch keeps:
//
//	node-wise, L layers:  1 (MiniBatch) + 1 (Blocks) + 3L (src/offsets/indices)
//	subgraph-wise:        1 + 1 + 3 (all blocks share one slice triple)
//
// The bounds below leave no slack at L=2 — if the hot path regrows a
// slice or rebuilds a table, these fail. Guarded !race because the race
// runtime adds bookkeeping allocations.

func allocsPerSample(t *testing.T, s Sampler, n int) float64 {
	t.Helper()
	g, err := gen.BarabasiAlbert(rand.New(rand.NewSource(10)), n, 4)
	if err != nil {
		t.Fatal(err)
	}
	tg := targets(64, n, 3)
	// One long-lived stream rather than BatchRNG per call: constructing a
	// rand.Rand allocates, and that harness cost must not count against
	// the sampler's budget.
	rng := rand.New(rand.NewSource(99))
	// Warm up: grow frontier tables and pick scratch to steady state.
	for i := 0; i < 3; i++ {
		s.Sample(rng, g, tg)
	}
	return testing.AllocsPerRun(50, func() {
		s.Sample(rng, g, tg)
	})
}

func TestNodeWiseSampleAllocBound(t *testing.T) {
	if got := allocsPerSample(t, &NodeWise{Fanouts: []int{10, 5}}, 600); got > 8 {
		t.Errorf("node-wise steady-state allocs/op = %v, want <= 8", got)
	}
}

func TestSubgraphWiseSampleAllocBound(t *testing.T) {
	if got := allocsPerSample(t, &SubgraphWise{WalkLength: 4, Layers: 2}, 600); got > 6 {
		t.Errorf("subgraph-wise steady-state allocs/op = %v, want <= 6", got)
	}
}

func TestLayerWiseSampleAllocBound(t *testing.T) {
	if got := allocsPerSample(t, &LayerWise{Deltas: []int{40, 20}}, 600); got > 8 {
		t.Errorf("layer-wise steady-state allocs/op = %v, want <= 8", got)
	}
}

// TestSampleIntoZeroAllocs: once a MiniBatch and the sampler's scratch
// are warm, refilling the batch allocates nothing, for every sampler.
// The rng is reseeded before each call, so every call draws the warm-up
// batch again and no record-sized batch can force a regrowth.
func TestSampleIntoZeroAllocs(t *testing.T) {
	g, err := gen.BarabasiAlbert(rand.New(rand.NewSource(10)), 600, 4)
	if err != nil {
		t.Fatal(err)
	}
	tg := targets(64, 600, 3)
	bias := func(v int32) float64 { return float64(v % 2) }
	for _, s := range []Sampler{
		&NodeWise{Fanouts: []int{10, 5}},
		&NodeWise{Fanouts: []int{4, 4}, Bias: bias, BiasStrength: 0.7},
		&LayerWise{Deltas: []int{40, 20}},
		&SubgraphWise{WalkLength: 4, Layers: 2},
	} {
		into := s.(Refiller)
		rng := rand.New(rand.NewSource(99))
		mb := into.SampleInto(rng, g, tg, &MiniBatch{})
		allocs := testing.AllocsPerRun(50, func() {
			rng.Seed(99)
			into.SampleInto(rng, g, tg, mb)
		})
		if allocs != 0 {
			t.Errorf("%s: warm SampleInto allocates %v, want 0", s.Name(), allocs)
		}
	}
}
