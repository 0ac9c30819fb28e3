package sample

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"

	"gnnavigator/internal/gen"
	"gnnavigator/internal/graph"
)

// goldenSampleStreamDigest is the FNV-64a digest of every batch
// TestGoldenSampleStream samples. It was recorded while the frozen
// map-based samplers still existed and the equivalence tests proved the
// frontier path bitwise equal to them, so it pins the samplers to the
// output of the pre-frontier implementation.
const goldenSampleStreamDigest = "f9929e18298ae585"

// hashMiniBatch writes everything a mini-batch hands its consumer to h.
func hashMiniBatch(h hash.Hash, mb *MiniBatch) {
	fmt.Fprintf(h, "%d %d %v %v\n", mb.NumVertices, mb.NumEdges, mb.Targets, mb.InputNodes)
	for _, b := range mb.Blocks {
		fmt.Fprintf(h, "%d %v %v %v\n", b.DstCount, b.SrcNodes, b.Offsets, b.Indices)
	}
}

// hubGraph has 40 hubs of degree ~120 over a periphery of degree ~4, so
// fanout-20 picks at the hubs take the sparse Fisher-Yates overlay
// (degree > 64 and > 4·fanout) and, with 20 draws over ~120 slots, land
// on previously displaced slots many times per batch.
func hubGraph(t *testing.T) *graph.Graph {
	t.Helper()
	const n = 400
	rng := rand.New(rand.NewSource(21))
	adj := make([][]int32, n)
	for v := 0; v < 40; v++ {
		for d := 0; d < 120; d++ {
			adj[v] = append(adj[v], int32(40+rng.Intn(n-40)))
		}
	}
	for v := 40; v < n; v++ {
		for d := 0; d < 4; d++ {
			adj[v] = append(adj[v], int32(rng.Intn(n)))
		}
	}
	g, err := graph.FromAdjList(adj)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGoldenSampleStream pins the sampled content of three streams, each
// drawn from one stateful sampler instance so scratch reuse across
// batches is covered:
//   - 25 batches of every equivSamplers case on BA(500, 4): node-wise,
//     full neighbourhood, biased, layer-wise covering and selecting, and
//     subgraph-wise;
//   - 50 node-wise batches targeting hubGraph's hubs (the overlay path);
//   - node-wise batches on a small, big, small, big graph sequence, so
//     the frontier tables regrow and stale stamps must never read live.
func TestGoldenSampleStream(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64; %s may fuse multiply-adds in math.Pow", runtime.GOARCH)
	}
	h := fnv.New64a()

	g, err := gen.BarabasiAlbert(rand.New(rand.NewSource(10)), 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range equivSamplers() {
		fmt.Fprintf(h, "%s\n", sc.name)
		for batch := 0; batch < 25; batch++ {
			tg := targets(1+batch%40, 500, int64(batch))
			mb := sc.s.Sample(BatchRNG(42, 0, batch), g, tg)
			if err := mb.Validate(); err != nil {
				t.Fatalf("%s batch %d: %v", sc.name, batch, err)
			}
			if sc.name == layerWiseSelecting {
				requireBudgetBelowCandidates(t, g, mb, sc.s.(*LayerWise).Deltas)
			}
			hashMiniBatch(h, mb)
		}
	}

	hub := hubGraph(t)
	overlay := &NodeWise{Fanouts: []int{20, 20}}
	fmt.Fprintf(h, "hub-overlay\n")
	for batch := 0; batch < 50; batch++ {
		tg := make([]int32, 24)
		for i := range tg {
			tg[i] = int32((batch*24 + i) % 40)
			if d := hub.Degree(tg[i]); d <= 64 || d <= 4*overlay.Fanouts[0] {
				t.Fatalf("hub %d has degree %d: its picks would not take the overlay", tg[i], d)
			}
		}
		hashMiniBatch(h, overlay.Sample(BatchRNG(5, 0, batch), hub, tg))
	}

	small, err := gen.BarabasiAlbert(rand.New(rand.NewSource(1)), 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := gen.BarabasiAlbert(rand.New(rand.NewSource(2)), 900, 3)
	if err != nil {
		t.Fatal(err)
	}
	regrow := &NodeWise{Fanouts: []int{4, 4}}
	fmt.Fprintf(h, "graph-change\n")
	for i, g := range []*graph.Graph{small, big, small, big} {
		tg := targets(16, g.NumVertices(), int64(i))
		hashMiniBatch(h, regrow.Sample(BatchRNG(7, 0, i), g, tg))
	}

	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenSampleStreamDigest {
		t.Fatalf("digest %s, want %s", got, goldenSampleStreamDigest)
	}
}
