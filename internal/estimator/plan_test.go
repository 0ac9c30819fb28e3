package estimator

import (
	"reflect"
	"testing"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/model"
	"gnnavigator/internal/plan"
)

// planProbeSet builds one sampling core crossed with cache-policy
// variants — the probe shape whose sampling the plan cache deduplicates.
func planProbeSet(t *testing.T) []backend.Config {
	t.Helper()
	variants := []struct {
		policy cache.Policy
		ratio  float64
	}{
		{cache.None, 0}, {cache.Static, 0.2}, {cache.FIFO, 0.2}, {cache.LRU, 0.2},
	}
	var cfgs []backend.Config
	for _, v := range variants {
		cfg := backend.Config{
			Dataset:  dataset.OgbnArxiv,
			Platform: "rtx4090",
			Model:    model.SAGE,
			Hidden:   32, Layers: 2, Heads: 2,
			Epochs: 2, LR: 0.01,
			Seed:        5151,
			Sampler:     backend.SamplerSAGE,
			BatchSize:   512,
			Fanouts:     []int{10, 5},
			CacheRatio:  v.ratio,
			CachePolicy: v.policy,
		}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// sharedProbeSet extends planProbeSet's core with a biased freq probe
// (live sampling, shared mining plan) and adds a second core carrying an
// opt probe: three distinct shared-plan keys across two sampling cores.
func sharedProbeSet(t *testing.T) []backend.Config {
	t.Helper()
	cfgs := planProbeSet(t)
	freq := cfgs[1]
	freq.CachePolicy, freq.BiasRate = cache.Freq, 0.6
	opt := cfgs[1]
	opt.CachePolicy, opt.Seed = cache.Opt, 5252
	// Interleave the cores so a worker's group is not a contiguous run.
	cfgs = append(cfgs[:2], append([]backend.Config{opt, freq}, cfgs[2:]...)...)
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return cfgs
}

// TestCollectPlanSharedEquivalent is the calibration-sharing contract:
// Collect's plan-shared profiling runs must return Records identical to
// the live re-sampling path (modulo WallSec, the documented host-time
// exception) at every worker count, and compile each unique epoch plan
// exactly once.
func TestCollectPlanSharedEquivalent(t *testing.T) {
	cfgs := sharedProbeSet(t)

	// Reference: every probe samples live (no Plans).
	want := make([]*backend.Perf, len(cfgs))
	for i, cfg := range cfgs {
		perf, err := backend.RunWith(cfg, backend.Options{SkipTraining: true})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = perf
	}

	for _, workers := range []int{1, 2, 4} {
		plan.ResetCounters()
		recs, err := CollectWith(cfgs, false, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(cfgs) {
			t.Fatalf("workers=%d: got %d records, want %d", workers, len(recs), len(cfgs))
		}
		for i := range cfgs {
			pa, pb := *want[i], *recs[i].Perf
			pa.WallSec, pb.WallSec = 0, 0
			if !reflect.DeepEqual(pa, pb) {
				t.Errorf("workers=%d probe %d (%s): plan-shared Perf differs from live sampling:\nshared: %+v\nlive:   %+v",
					workers, i, cfgs[i].Label(), pb, pa)
			}
		}
		// Three keys: core A's run plan (fetched by its four unbiased
		// probes) and its freq mining plan, core B's opt run plan. Six
		// fetches in all, so three are hits.
		if c, h := plan.Compiles(), plan.CacheHits(); c != 3 || h != 3 {
			t.Errorf("workers=%d: plan counters (compiles=%d, hits=%d), want (3, 3)", workers, c, h)
		}
	}
}

// TestProbeConfigsShareCores: the probe generator must draw more probes
// than sampling cores (pigeonhole), so real calibration fan-outs always
// contain plan-sharing collisions for the cache to exploit.
func TestProbeConfigsShareCores(t *testing.T) {
	cfgs := ProbeConfigs(dataset.OgbnArxiv, model.SAGE, "rtx4090", 30, 5)
	seeds := map[int64]bool{}
	for _, c := range cfgs {
		seeds[c.Seed] = true
	}
	if len(seeds) >= len(cfgs) {
		t.Errorf("%d probes drew %d distinct sampling cores — no sharing possible", len(cfgs), len(seeds))
	}
	if len(seeds) < 2 {
		t.Errorf("only %d distinct cores — diversity collapsed", len(seeds))
	}
}
