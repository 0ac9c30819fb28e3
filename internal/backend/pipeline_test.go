package backend

import (
	"reflect"
	"strings"
	"testing"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/plan"
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
// derived from (seed, epoch, batchIndex), so how far the producer runs
// ahead cannot change any draw; run under -race (CI does) this also
// shakes out producer/consumer races.
func TestRunPrefetchBitwiseEqualSerial(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		// Dynamic cache: the producer mutates residency ahead of the
		// consumer.
		{"fifo-cache", func(c *Config) {
			c.CacheRatio = 0.2
			c.CachePolicy = cache.FIFO
		}},
		// Biased sampling against a dynamic cache: each batch samples
		// against the residency the producer left after the one before.
		{"coupled-bias-lru", func(c *Config) {
			c.CacheRatio = 0.2
			c.CachePolicy = cache.LRU
			c.BiasRate = 0.9
		}},
		// Frequency pre-fill: the pre-sample admission pass must be
		// deterministic and independent of the pipeline depth, under a
		// bias reading its immutable residency.
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

// TestRunFetchesPlanKeys pins what RunWith fetches through
// Options.Plans over every policy × bias × share (a Cache or nil): the
// run's own plan when the run is unbiased and either shares or uses Opt,
// plus the mining plan under Freq. Two runs sharing one Cache compile
// each of those once, hit each once and keep each; two runs with a nil
// Cache compile each twice and hit none. It also pins that explicit
// plans are checked: a replayed plan equals the live run bitwise, and a
// biased run or an incompatible plan is refused.
func TestRunFetchesPlanKeys(t *testing.T) {
	valid := 0
	for _, policy := range []cache.Policy{cache.None, cache.Static, cache.LRU, cache.Freq, cache.Opt} {
		for _, bias := range []float64{0, 0.6} {
			for _, share := range []bool{false, true} {
				cfg := fastCfg()
				cfg.CachePolicy, cfg.BiasRate = policy, bias
				if policy != cache.None {
					cfg.CacheRatio = 0.2
				}
				if cfg.Validate() != nil {
					continue
				}
				valid++
				var keys int64
				if bias == 0 && (share || policy == cache.Opt) {
					keys++
				}
				if policy == cache.Freq {
					keys++
				}
				opts := Options{SkipTraining: true}
				if share {
					opts.Plans = plan.Cache{}
				}
				plan.ResetCounters()
				for range 2 {
					if _, err := RunWith(cfg, opts); err != nil {
						t.Fatalf("%s: %v", cfg.Label(), err)
					}
				}
				wantCompiles, wantHits := 2*keys, int64(0)
				if share {
					wantCompiles, wantHits = keys, keys
				}
				if c, h := plan.Compiles(), plan.CacheHits(); c != wantCompiles || h != wantHits {
					t.Errorf("%s share=%v: two runs made (compiles=%d, hits=%d), want (%d, %d)",
						cfg.Label(), share, c, h, wantCompiles, wantHits)
				}
				if share && int64(len(opts.Plans)) != keys {
					t.Errorf("%s: the Cache kept %d plans, want %d", cfg.Label(), len(opts.Plans), keys)
				}
			}
		}
	}
	if valid != 16 {
		t.Fatalf("%d valid combinations, want 16", valid)
	}

	cfg := fastCfg()
	cfg.CachePolicy, cfg.CacheRatio, cfg.Dropout = cache.LRU, 0.2, 0.2
	p, err := CompilePlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live, err := RunWith(cfg, Options{EvalBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := RunWith(cfg, Options{EvalBatch: 256, Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	perfEqual(t, "replayed vs live", replayed, live)
	biased := cfg
	biased.BiasRate = 0.6
	if _, err := RunWith(biased, Options{Plan: p}); err == nil || !strings.Contains(err.Error(), "biased") {
		t.Errorf("explicit plan under BiasRate > 0 returned %v", err)
	}
	other := cfg
	other.Seed++
	if _, err := RunWith(other, Options{Plan: p}); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("plan compiled for another seed returned %v", err)
	}
}
