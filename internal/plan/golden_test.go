package plan

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"gnnavigator/internal/sample"
)

// goldenCompileDigest is the FNV-64a digest of every batch that
// TestGoldenCompile's plans replay. It was recorded while Compile still
// drew a fresh MiniBatch and a fresh rand.Rand per batch and layer-wise
// expansion still sorted its candidates, so any change to how a plan is
// assembled must leave it alone.
const goldenCompileDigest = "77f816c3925ecd7b"

// TestGoldenCompile pins the sampled content of compiled plans: node-wise
// on both neighbour-pick paths (the test graph's hubs exceed 64 neighbours
// and 4× the fanout, so they take the sparse overlay; everyone else the
// scratch-copy Fisher-Yates), layer-wise with budgets below the candidate
// count and covering it, and subgraph-wise, each at 1 and 3 epochs.
func TestGoldenCompile(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64; %s may fuse multiply-adds in math.Pow", runtime.GOARCH)
	}
	g := testGraph(t)
	targets := testTargets(700)
	hubs := 0
	for _, v := range targets {
		if g.Degree(v) > 64 {
			hubs++
		}
	}
	if hubs == 0 {
		t.Fatal("no target has more than 64 neighbours: the overlay path would go unpinned")
	}
	cases := []struct {
		name string
		mk   func() sample.Sampler
	}{
		{"node-wise", func() sample.Sampler { return &sample.NodeWise{Fanouts: []int{6, 4}} }},
		{"layer-wise-selecting", func() sample.Sampler { return &sample.LayerWise{Deltas: []int{200, 400}} }},
		{"layer-wise-covering", func() sample.Sampler { return &sample.LayerWise{Deltas: []int{3000, 3000}} }},
		{"subgraph-wise", func() sample.Sampler { return &sample.SubgraphWise{WalkLength: 5, Layers: 2} }},
	}
	h := fnv.New64a()
	mb := &sample.MiniBatch{}
	for _, c := range cases {
		for _, epochs := range []int{1, 3} {
			key := KeyFor("test-ds", false, c.mk(), 128, 11, epochs, true, targets)
			pl, err := Compile(g, c.mk(), key, targets)
			if err != nil {
				t.Fatalf("%s/%d epochs: %v", c.name, epochs, err)
			}
			fmt.Fprintf(h, "%s %d %d %d\n", c.name, epochs, pl.BatchesPerEpoch(), pl.NumLayers())
			for e := 0; e < pl.Epochs(); e++ {
				for i := 0; i < pl.BatchesPerEpoch(); i++ {
					pl.ReplayInto(mb, e, i)
					fmt.Fprintf(h, "%d %d %v\n", mb.NumVertices, mb.NumEdges, mb.InputNodes)
					for _, b := range mb.Blocks {
						fmt.Fprintf(h, "%d %v %v\n", b.DstCount, b.Offsets, b.Indices)
					}
				}
			}
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenCompileDigest {
		t.Fatalf("digest %s, want %s", got, goldenCompileDigest)
	}
}
