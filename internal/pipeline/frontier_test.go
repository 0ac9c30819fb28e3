package pipeline

import (
	"math/rand"
	"reflect"
	"testing"

	"gnnavigator/internal/gen"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/sample"
)

// capture runs one pipeline pass and keeps every sampled minibatch (safe:
// minibatch slices are freshly built per batch; only sampler-internal
// scratch is recycled).
func capture(t *testing.T, g *graph.Graph, smp sample.Sampler, tg []int32, prefetch int) []*sample.MiniBatch {
	t.Helper()
	var out []*sample.MiniBatch
	err := Run(Config{
		Graph:     g,
		Sampler:   smp,
		Seed:      11,
		Epochs:    2,
		BatchSize: 48,
		Targets:   tg,
		Shuffle:   true,
		Prefetch:  prefetch,
	}, func(b *Batch) error {
		out = append(out, b.MB)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// goldenSamplerStreams holds the digest of the batch stream
// TestFrontierPipelineEquivalence samples at prefetch depth 0, per
// sampler. It was recorded while frozen map-based samplers still
// existed and produced these same streams through the inline loop.
var goldenSamplerStreams = map[string]string{
	"node-wise":     "b61ff0c726bfb1d9",
	"layer-wise":    "0cbff3e5f6664aa6",
	"subgraph-wise": "826beb14cbb43f4d",
}

// TestFrontierPipelineEquivalence pins every sampler mode through the
// staged engine: the inline loop (prefetch depth 0) samples the
// recorded stream, and depths 1 and 4 reproduce it bitwise. Run under
// -race in CI, this also proves the sampler-owned frontier scratch
// respects the single-producer contract at every depth.
func TestFrontierPipelineEquivalence(t *testing.T) {
	g, err := gen.BarabasiAlbert(rand.New(rand.NewSource(10)), 600, 4)
	if err != nil {
		t.Fatal(err)
	}
	tg := make([]int32, 200)
	rng := rand.New(rand.NewSource(3))
	for i := range tg {
		tg[i] = int32(rng.Intn(600))
	}
	samplers := []sample.Sampler{
		&sample.NodeWise{Fanouts: []int{8, 4}},
		&sample.LayerWise{Deltas: []int{40, 20}},
		&sample.SubgraphWise{WalkLength: 4, Layers: 2},
	}
	for _, smp := range samplers {
		t.Run(smp.Name(), func(t *testing.T) {
			want := capture(t, g, smp, tg, 0)
			requireGolden(t, want, goldenSamplerStreams[smp.Name()])
			for _, depth := range []int{1, 4} {
				got := capture(t, g, smp, tg, depth)
				if len(got) != len(want) {
					t.Fatalf("depth %d: %d batches, want %d", depth, len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(want[i], got[i]) {
						t.Fatalf("depth %d batch %d: diverged from depth 0", depth, i)
					}
				}
			}
		})
	}
}
