package sample

import (
	"math/rand"
	"slices"
	"testing"

	"gnnavigator/internal/gen"
	"gnnavigator/internal/graph"
)

// equivSamplers returns one instance of every sampler mode, including
// biased node-wise selection and layer-wise on both of its branches.
func equivSamplers() []struct {
	name string
	s    Sampler
} {
	bias := func(v int32) float64 {
		if v%3 == 0 {
			return 2
		}
		return 0
	}
	return []struct {
		name string
		s    Sampler
	}{
		{"node-wise", &NodeWise{Fanouts: []int{5, 3}}},
		{"node-wise-full", &NodeWise{Fanouts: []int{0}}},
		{"node-wise-biased", &NodeWise{Fanouts: []int{4, 4}, Bias: bias, BiasStrength: 0.7}},
		{"layer-wise", &LayerWise{Deltas: []int{40, 20}}},
		{layerWiseSelecting, &LayerWise{Deltas: []int{3, 2}}},
		{"subgraph-wise", &SubgraphWise{WalkLength: 4, Layers: 2}},
	}
}

// layerWiseSelecting names the layer-wise case whose budgets sit below
// the candidate count on every hop of every batch (the generator's
// minimum degree is 4), so expand always takes its selecting branch; the
// plain "layer-wise" case mostly takes everyone.
const layerWiseSelecting = "layer-wise-selecting"

// requireBudgetBelowCandidates fails unless every hop of mb had more
// candidates (distinct neighbours of its destinations) than its budget.
func requireBudgetBelowCandidates(t *testing.T, g *graph.Graph, mb *MiniBatch, deltas []int) {
	t.Helper()
	L := len(mb.Blocks)
	for h, delta := range deltas {
		blk := &mb.Blocks[L-1-h]
		cands := map[int32]bool{}
		for _, v := range blk.SrcNodes[:blk.DstCount] {
			for _, u := range g.Neighbors(v) {
				cands[u] = true
			}
		}
		if len(cands) <= delta {
			t.Fatalf("hop %d: %d candidates for a budget of %d: the selecting branch did not run", h, len(cands), delta)
		}
	}
}

func requireEqualMiniBatch(t *testing.T, name string, batch int, want, got *MiniBatch) {
	t.Helper()
	if len(want.Blocks) != len(got.Blocks) {
		t.Fatalf("%s batch %d: blocks %d != %d", name, batch, len(got.Blocks), len(want.Blocks))
	}
	// slices.Equal, not reflect.DeepEqual: a zero-edge block is
	// equivalent whether its empty slices are nil or pre-sized.
	for l := range want.Blocks {
		w, g := &want.Blocks[l], &got.Blocks[l]
		if w.DstCount != g.DstCount ||
			!slices.Equal(w.SrcNodes, g.SrcNodes) ||
			!slices.Equal(w.Offsets, g.Offsets) ||
			!slices.Equal(w.Indices, g.Indices) {
			t.Fatalf("%s batch %d block %d diverged", name, batch, l)
		}
	}
	if !slices.Equal(want.Targets, got.Targets) ||
		!slices.Equal(want.InputNodes, got.InputNodes) ||
		want.NumVertices != got.NumVertices || want.NumEdges != got.NumEdges {
		t.Fatalf("%s batch %d: minibatch metadata diverged", name, batch)
	}
}

// TestHubOverlayEquivalence drives the sparse Fisher-Yates overlay
// hard: every hub of hubGraph takes the overlay branch at fanout 20, and
// with 20 draws over ~120 slots a draw lands on a previously displaced
// slot many times per pick. Each pick must equal a partial Fisher-Yates
// over a full copy of the neighbourhood, drawn from a twin RNG. One
// scratch serves every pick, so a stale overlay entry must never read
// as live.
func TestHubOverlayEquivalence(t *testing.T) {
	g := hubGraph(t)
	const fanout = 20
	var sc pickScratch
	for round := 0; round < 50; round++ {
		rng, twin := BatchRNG(5, 0, round), BatchRNG(5, 0, round)
		for v := int32(0); v < 40; v++ {
			ns := g.Neighbors(v)
			if len(ns) <= 64 || len(ns) <= 4*fanout {
				t.Fatalf("hub %d has degree %d: its picks would not take the overlay", v, len(ns))
			}
			got := sc.pickNeighbors(rng, ns, fanout, nil, 0)
			want := slices.Clone(ns)
			for i := 0; i < fanout; i++ {
				j := i + twin.Intn(len(want)-i)
				want[i], want[j] = want[j], want[i]
			}
			if !slices.Equal(got, want[:fanout]) {
				t.Fatalf("round %d hub %d: overlay picked %v, full shuffle %v", round, v, got, want[:fanout])
			}
		}
	}
}

// TestFrontierSurvivesGraphChange checks the frontier tables regrow
// correctly when one sampler instance is pointed at a larger graph (and
// back) mid-stream — the table length follows NumVertices, and stale
// stamps from the previous graph must never read as live. Every batch
// must equal the one a fresh instance, which has no stamps, samples.
func TestFrontierSurvivesGraphChange(t *testing.T) {
	small, err := gen.BarabasiAlbert(rand.New(rand.NewSource(1)), 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := gen.BarabasiAlbert(rand.New(rand.NewSource(2)), 900, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := &NodeWise{Fanouts: []int{4, 4}}
	for i, g := range []*graph.Graph{small, big, small, big} {
		tg := targets(16, g.NumVertices(), int64(i))
		want := (&NodeWise{Fanouts: s.Fanouts}).Sample(BatchRNG(7, 0, i), g, tg)
		got := s.Sample(BatchRNG(7, 0, i), g, tg)
		requireEqualMiniBatch(t, "graph-change", i, want, got)
	}
}

// TestSampleIntoReuseMatchesFresh drives one reused MiniBatch per
// sampler through alternately large and small target sets: every refill
// must equal a fresh Sample of the same batch bitwise, so no tail of a
// larger earlier batch leaks into a smaller later one.
func TestSampleIntoReuseMatchesFresh(t *testing.T) {
	g, err := gen.BarabasiAlbert(rand.New(rand.NewSource(10)), 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	fresh := equivSamplers()
	for i, sc := range equivSamplers() {
		t.Run(sc.name, func(t *testing.T) {
			into := sc.s.(Refiller)
			mb := &MiniBatch{}
			for batch := 0; batch < 12; batch++ {
				n := 3 + batch%3
				if batch%2 == 0 {
					n = 120 + 20*batch
				}
				tg := targets(n, 500, int64(batch))
				want := fresh[i].s.Sample(BatchRNG(42, 0, batch), g, tg)
				got := into.SampleInto(BatchRNG(42, 0, batch), g, tg, mb)
				if got != mb {
					t.Fatalf("batch %d: SampleInto returned a new MiniBatch", batch)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				requireEqualMiniBatch(t, sc.name, batch, want, got)
			}
		})
	}
}

// TestSelectTopMatchesSortWithTies: with keys drawn from three values,
// so that nearly every boundary falls inside a run of exact ties, the
// quickselected top k is the set a full sort under lwBefore puts first,
// for every k.
func TestSelectTopMatchesSortWithTies(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		c := make([]lwCand, 1+rng.Intn(60))
		for i, v := range rng.Perm(len(c)) {
			c[i] = lwCand{v: int32(v), key: float64(rng.Intn(3)) / 4}
		}
		sorted := slices.Clone(c)
		slices.SortFunc(sorted, func(a, b lwCand) int {
			switch {
			case lwBefore(a, b):
				return -1
			case lwBefore(b, a):
				return 1
			}
			return 0
		})
		for k := 0; k < len(c); k++ {
			got := slices.Clone(c)
			selectTop(got, k)
			want := make([]int32, k)
			for i := range want {
				want[i] = sorted[i].v
			}
			top := make([]int32, k)
			for i := range top {
				top[i] = got[i].v
			}
			slices.Sort(want)
			slices.Sort(top)
			if !slices.Equal(top, want) {
				t.Fatalf("trial %d, k=%d: top set %v, sort gives %v", trial, k, top, want)
			}
		}
	}
}
