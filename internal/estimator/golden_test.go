package estimator

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/model"
)

// goldenPredictDigest is the FNV-64a digest of the %#v of every
// Prediction goldenPredictConfigs yields, recorded while Predict still
// carried its own copy of the backend's pricing code (effective scale,
// workload, volume fields, memory volumes, device headroom).
const goldenPredictDigest = "6272770bd0a2a8f8"

// goldenPredictConfigs spans the three samplers × K ∈ {1, 2} × float32
// and int8 × no cache, a prefilled cache and a dynamic cache.
func goldenPredictConfigs() []backend.Config {
	var out []backend.Config
	for _, smp := range []backend.SamplerKind{backend.SamplerSAGE, backend.SamplerFastGCN, backend.SamplerSAINT} {
		for _, k := range []int{1, 2} {
			for _, prec := range []cache.Precision{cache.Float32, cache.Int8} {
				for _, policy := range []cache.Policy{cache.None, cache.Static, cache.LRU} {
					cfg := backend.Config{
						Dataset: dataset.OgbnArxiv, Platform: "a100x4", Model: model.SAGE,
						Hidden: 32, Layers: 2, Epochs: 2, LR: 0.01, Seed: 3,
						Sampler: smp, BatchSize: 1024, Fanouts: []int{10, 5},
						Devices: k, Precision: prec, CachePolicy: policy,
					}
					if smp == backend.SamplerSAINT {
						cfg.Fanouts, cfg.WalkLength = nil, 6
					}
					if policy != cache.None {
						cfg.CacheRatio = 0.2
					}
					out = append(out, cfg)
				}
			}
		}
	}
	return out
}

// TestGoldenPredict pins Predict bit for bit over goldenPredictConfigs.
func TestGoldenPredict(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	e, _ := trainedEstimator(t)
	h := fnv.New64a()
	for _, cfg := range goldenPredictConfigs() {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Label(), err)
		}
		p, err := e.Predict(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label(), err)
		}
		fmt.Fprintf(h, "%#v\n", p)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenPredictDigest {
		t.Fatalf("digest %s, want %s", got, goldenPredictDigest)
	}
}
