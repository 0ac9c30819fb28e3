package backend

import (
	"reflect"
	"testing"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/model"
)

// perfFingerprint strips the wall-clock field (the only legitimately
// nondeterministic output) so Perf values can be compared exactly.
func perfFingerprint(p *Perf) Perf {
	q := *p
	q.WallSec = 0
	return q
}

// TestRunPrefetchBitwiseEqualSerial is the acceptance test for the
// pipelined engine: full backend.RunWith (sampling, cache, gather,
// forward, backward, Adam, per-epoch evaluation) at prefetch depths
// {0, 1, 4} must produce bitwise-identical Perf. Per-batch RNGs are
// derived from (seed, epoch, batchIndex), so how far the producer stages
// run ahead cannot change any draw; run under -race (CI does) this also
// shakes out stage/consumer races.
func TestRunPrefetchBitwiseEqualSerial(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		// Dynamic cache: the lookup stage mutates residency ahead of the
		// consumer.
		{"fifo-cache", func(c *Config) {
			c.CacheRatio = 0.2
			c.CachePolicy = cache.FIFO
		}},
		// Biased sampling against a dynamic cache: the coupled path, where
		// the sampler and cache stages must stay fused.
		{"coupled-bias-lru", func(c *Config) {
			c.CacheRatio = 0.2
			c.CachePolicy = cache.LRU
			c.BiasRate = 0.9
		}},
		// Frequency pre-fill: the pre-sample admission pass must be
		// deterministic and independent of the pipeline depth, and the
		// immutable residency lets the bias run unfused.
		{"freq-bias", func(c *Config) {
			c.CacheRatio = 0.2
			c.CachePolicy = cache.Freq
			c.BiasRate = 0.9
		}},
		// No cache at all, SAINT sampler for coverage of a second sampler.
		{"saint-no-cache", func(c *Config) {
			c.Sampler = SamplerSAINT
			c.Fanouts = nil
			c.WalkLength = 6
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastCfg()
			cfg.BatchSize = 256
			tc.mutate(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			base, err := RunWith(cfg, Options{EvalBatch: 256, Prefetch: -1})
			if err != nil {
				t.Fatal(err)
			}
			want := perfFingerprint(base)
			for _, depth := range []int{1, 4} {
				got, err := RunWith(cfg, Options{EvalBatch: 256, Prefetch: depth})
				if err != nil {
					t.Fatal(err)
				}
				if g := perfFingerprint(got); !reflect.DeepEqual(g, want) {
					t.Errorf("prefetch %d diverges from serial:\nserial:   %+v\nprefetch: %+v", depth, want, g)
				}
			}
		})
	}
}

// TestEvaluatePrefetchEqual pins the standalone evaluation path to the
// same contract.
func TestEvaluatePrefetchEqual(t *testing.T) {
	d, err := dataset.Load(dataset.OgbnArxiv)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(model.Config{
		Kind: model.SAGE, InDim: d.Graph.FeatDim, Hidden: 16,
		OutDim: d.Graph.NumClasses, Layers: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := evaluate(m, d.Graph, d.ValIdx, 1200, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 3} {
		got, err := evaluate(m, d.Graph, d.ValIdx, 1200, 7, depth)
		if err != nil {
			t.Fatal(err)
		}
		if got != serial {
			t.Errorf("eval accuracy at prefetch %d = %v, serial = %v", depth, got, serial)
		}
	}
}
