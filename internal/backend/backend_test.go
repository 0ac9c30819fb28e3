package backend

import (
	"context"
	"reflect"
	"testing"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/infer"
	"gnnavigator/internal/model"
	"gnnavigator/internal/nn"
)

// fastCfg returns a small, quick configuration for tests.
func fastCfg() Config {
	return Config{
		Dataset:     dataset.OgbnArxiv,
		Platform:    "rtx4090",
		Sampler:     SamplerSAGE,
		BatchSize:   512,
		Fanouts:     []int{8, 5},
		CachePolicy: cache.None,
		Model:       model.SAGE,
		Hidden:      24,
		Layers:      2,
		Epochs:      2,
		LR:          0.01,
		Seed:        42,
	}
}

func TestConfigValidate(t *testing.T) {
	good := fastCfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"unknown dataset", func(c *Config) { c.Dataset = "nope" }},
		{"unknown platform", func(c *Config) { c.Platform = "tpu" }},
		{"unknown sampler", func(c *Config) { c.Sampler = "magic" }},
		{"empty fanouts", func(c *Config) { c.Fanouts = nil }},
		{"fanouts/layers mismatch", func(c *Config) { c.Fanouts = []int{5} }},
		{"zero batch", func(c *Config) { c.BatchSize = 0 }},
		{"bias without cache", func(c *Config) { c.BiasRate = 0.5 }},
		{"bad bias", func(c *Config) { c.BiasRate = 2; c.CacheRatio = 0.1; c.CachePolicy = cache.Static }},
		{"bad cache ratio", func(c *Config) { c.CacheRatio = 1.5 }},
		{"cache ratio without policy", func(c *Config) { c.CacheRatio = 0.2 }},
		{"zero epochs", func(c *Config) { c.Epochs = 0 }},
		{"zero lr", func(c *Config) { c.LR = 0 }},
		{"zero hidden", func(c *Config) { c.Hidden = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := fastCfg()
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
}

// templates lists every preset.
var templates = []Template{TemplatePyG, TemplatePaFull, TemplatePaLow,
	Template2PGraph, TemplateSAINT, TemplateFastGCN}

func TestTemplatesInstantiate(t *testing.T) {
	for _, tpl := range templates {
		tpl := tpl
		t.Run(string(tpl), func(t *testing.T) {
			cfg, err := FromTemplate(tpl, dataset.Reddit2, model.SAGE, "rtx4090")
			if err != nil {
				t.Fatalf("FromTemplate(%s): %v", tpl, err)
			}
			if err := cfg.Validate(); err != nil {
				t.Errorf("template %s invalid: %v", tpl, err)
			}
		})
	}
	if _, err := FromTemplate("no-such", dataset.Reddit2, model.SAGE, "rtx4090"); err == nil {
		t.Error("unknown template accepted")
	}
}

func TestRunProducesSanePerf(t *testing.T) {
	perf, err := RunWith(fastCfg(), Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if perf.TimeSec <= 0 {
		t.Errorf("TimeSec = %v, want > 0", perf.TimeSec)
	}
	if perf.MemoryGB <= 0 {
		t.Errorf("MemoryGB = %v, want > 0", perf.MemoryGB)
	}
	if perf.Accuracy <= 0.15 {
		t.Errorf("Accuracy = %v, want above chance (0.1)", perf.Accuracy)
	}
	if !perf.Feasible {
		t.Error("small config reported infeasible")
	}
	if perf.Iterations == 0 || perf.MeanBatchSize <= 0 {
		t.Errorf("diagnostics empty: %+v", perf)
	}
	if len(perf.EpochTimes) != 2 || len(perf.AccuracyHistory) != 2 {
		t.Errorf("history lengths: %d epochs, %d accs", len(perf.EpochTimes), len(perf.AccuracyHistory))
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := RunWith(fastCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWith(fastCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeSec != b.TimeSec || a.Accuracy != b.Accuracy || a.MemoryGB != b.MemoryGB {
		t.Errorf("same seed differs: %+v vs %+v", a, b)
	}
}

func TestCacheReducesTransferTime(t *testing.T) {
	base := fastCfg()
	noCache, err := RunWith(base, Options{SkipTraining: true})
	if err != nil {
		t.Fatal(err)
	}
	cached := base
	cached.CacheRatio = 0.4
	cached.CachePolicy = cache.Static
	withCache, err := RunWith(cached, Options{SkipTraining: true})
	if err != nil {
		t.Fatal(err)
	}
	if withCache.HitRate <= 0.05 {
		t.Errorf("static cache hit rate %.3f too low", withCache.HitRate)
	}
	if withCache.TimeBreakdown.TTransfer >= noCache.TimeBreakdown.TTransfer {
		t.Errorf("cache did not reduce transfer: %v vs %v",
			withCache.TimeBreakdown.TTransfer, noCache.TimeBreakdown.TTransfer)
	}
	if withCache.MemoryGB <= noCache.MemoryGB {
		t.Errorf("cache did not increase memory: %v vs %v", withCache.MemoryGB, noCache.MemoryGB)
	}
}

func TestBiasedSamplingRaisesHitRate(t *testing.T) {
	base := fastCfg()
	base.CacheRatio = 0.15
	base.CachePolicy = cache.Static
	unbiased, err := RunWith(base, Options{SkipTraining: true})
	if err != nil {
		t.Fatal(err)
	}
	biased := base
	biased.BiasRate = 0.9
	with, err := RunWith(biased, Options{SkipTraining: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.HitRate <= unbiased.HitRate {
		t.Errorf("bias did not raise hit rate: %.3f vs %.3f", with.HitRate, unbiased.HitRate)
	}
}

// TestTimingOnlyEqualsTrainedRun pins that a timing-only run is the
// trained run without its train step: over TestGoldenCachedRun's grid
// (every precision × policy, one device and two hash-partitioned), the
// SkipTraining Perf equals the trained Perf in every field but the
// accuracy ones and the wall clock.
func TestTimingOnlyEqualsTrainedRun(t *testing.T) {
	for _, k := range []int{1, 2} {
		for _, prec := range cache.Precisions() {
			for _, policy := range []cache.Policy{cache.None, cache.Static, cache.LRU, cache.FIFO, cache.Freq, cache.Opt} {
				cfg := fastCfg()
				cfg.Platform, cfg.Dropout, cfg.CachePolicy, cfg.Precision = "a100x4", 0.2, policy, prec
				if policy != cache.None {
					cfg.CacheRatio = 0.2
				}
				if k > 1 {
					cfg.Devices, cfg.Partition = k, graph.PartitionHash
				}
				trained, err := RunWith(cfg, Options{EvalBatch: 256})
				if err != nil {
					t.Fatalf("%s: %v", cfg.Label(), err)
				}
				skip, err := RunWith(cfg, Options{SkipTraining: true})
				if err != nil {
					t.Fatalf("%s timing-only: %v", cfg.Label(), err)
				}
				if skip.Accuracy != 0 || len(skip.AccuracyHistory) != 0 {
					t.Errorf("%s: timing-only run reported accuracy", cfg.Label())
				}
				trained.Accuracy, trained.AccuracyHistory = 0, nil
				trained.WallSec, skip.WallSec = 0, 0
				if !reflect.DeepEqual(*skip, *trained) {
					t.Errorf("%s:\ntiming-only %+v\ntrained     %+v", cfg.Label(), *skip, *trained)
				}
			}
		}
	}
}

func TestAllSamplersRun(t *testing.T) {
	for _, s := range []SamplerKind{SamplerSAGE, SamplerFastGCN, SamplerSAINT} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			cfg := fastCfg()
			cfg.Sampler = s
			if s == SamplerSAINT {
				cfg.Fanouts = nil
				cfg.WalkLength = 6
			}
			perf, err := RunWith(cfg, Options{SkipTraining: true})
			if err != nil {
				t.Fatalf("Run(%s): %v", s, err)
			}
			if perf.TimeSec <= 0 {
				t.Errorf("%s TimeSec = %v", s, perf.TimeSec)
			}
		})
	}
}

func TestInfeasibleWhenCacheExceedsMemory(t *testing.T) {
	cfg := fastCfg()
	cfg.Dataset = dataset.OgbnProducts // 2.45M full vertices
	cfg.Platform = "m90-2g"            // 2 GiB constrained device
	cfg.CacheRatio = 1.0
	cfg.CachePolicy = cache.Static
	// A wide model with big fanouts so runtime memory alone is large.
	cfg.BatchSize = 2048
	cfg.Fanouts = []int{25, 10}
	cfg.Hidden = 512
	perf, err := RunWith(cfg, Options{SkipTraining: true})
	if err != nil {
		t.Fatal(err)
	}
	if perf.Feasible {
		t.Errorf("full products cache + runtime (%.1f GB) on 2 GiB device reported feasible", perf.MemoryGB)
	}
	// The same config on the 80 GiB A100 must be feasible.
	cfg.Platform = "a100"
	perf, err = RunWith(cfg, Options{SkipTraining: true})
	if err != nil {
		t.Fatal(err)
	}
	if !perf.Feasible {
		t.Errorf("%.1f GB reported infeasible on 80 GiB A100", perf.MemoryGB)
	}
}

// TestReorderRuns: a degree-reordered run trains and validates on the
// same vertices as the plain run, only under new ids. With the node-wise
// sampler and no cache nothing reads the ids themselves, so the two runs
// must agree in accuracy history and every volume.
func TestReorderRuns(t *testing.T) {
	cfg := fastCfg()
	cfg.Reorder = true
	cfg.CacheRatio = 0.2
	cfg.CachePolicy = cache.Static
	perf, err := RunWith(cfg, Options{SkipTraining: true})
	if err != nil {
		t.Fatalf("Run with reorder: %v", err)
	}
	if perf.HitRate <= 0 {
		t.Error("reordered run has zero hit rate with static cache")
	}

	opts := Options{EvalBatch: 512}
	plain, err := RunWith(fastCfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg = fastCfg()
	cfg.Reorder = true
	reordered, err := RunWith(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	plain.WallSec, reordered.WallSec = 0, 0
	if !reflect.DeepEqual(*reordered, *plain) {
		t.Errorf("reordered run differs from the plain run:\nreordered: %+v\nplain:     %+v", *reordered, *plain)
	}
}

// TestCPUOnlyCachingBuysNothing: on the CPU-only platform the link is a
// memcpy, so a cache cannot meaningfully reduce epoch time — the paper's
// motivation for platform-adaptive guidelines.
func TestCPUOnlyCachingBuysNothing(t *testing.T) {
	base := fastCfg()
	base.Dataset = dataset.Reddit2
	base.Platform = "cpu-only"
	noCache, err := RunWith(base, Options{SkipTraining: true})
	if err != nil {
		t.Fatal(err)
	}
	cached := base
	cached.CacheRatio = 0.45
	cached.CachePolicy = cache.Static
	withCache, err := RunWith(cached, Options{SkipTraining: true})
	if err != nil {
		t.Fatal(err)
	}
	cpuGain := noCache.TimeSec / withCache.TimeSec

	// The same pair on the PCIe-attached GPU platform must gain more.
	gpuBase := base
	gpuBase.Platform = "rtx4090"
	gpuNo, err := RunWith(gpuBase, Options{SkipTraining: true})
	if err != nil {
		t.Fatal(err)
	}
	gpuCached := cached
	gpuCached.Platform = "rtx4090"
	gpuWith, err := RunWith(gpuCached, Options{SkipTraining: true})
	if err != nil {
		t.Fatal(err)
	}
	gpuGain := gpuNo.TimeSec / gpuWith.TimeSec
	if cpuGain >= gpuGain {
		t.Errorf("cache gain on CPU-only (%.3fx) not below GPU (%.3fx)", cpuGain, gpuGain)
	}
	if cpuGain > 1.1 {
		t.Errorf("cache sped up CPU-only training %.2fx; transfers should be ~free", cpuGain)
	}
}

// TestTemplatesAcrossDatasets: every template must run on every dataset.
func TestTemplatesAcrossDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-product of templates x datasets is slow")
	}
	for _, ds := range dataset.Names() {
		for _, tpl := range templates {
			cfg, err := FromTemplate(tpl, ds, model.SAGE, "rtx4090")
			if err != nil {
				t.Fatalf("FromTemplate(%s, %s): %v", tpl, ds, err)
			}
			cfg.Epochs = 1
			perf, err := RunWith(cfg, Options{SkipTraining: true})
			if err != nil {
				t.Fatalf("Run(%s, %s): %v", tpl, ds, err)
			}
			if perf.TimeSec <= 0 || perf.MemoryGB <= 0 {
				t.Errorf("%s on %s degenerate: %+v", tpl, ds, perf)
			}
		}
	}
}

// evaluate is the validation accuracy RunWith reports, taken standalone:
// mdl over the first limit vertices of idx through an inference engine
// seeded with seed.
func evaluate(mdl *model.Model, g *graph.Graph, idx []int32, limit int, seed int64) (float64, error) {
	eng, err := infer.New(infer.Config{Graph: g, Model: mdl, Seed: seed})
	if err != nil {
		return 0, err
	}
	return eng.Accuracy(context.Background(), idx, limit)
}

func TestEvaluateErrors(t *testing.T) {
	d := dataset.MustLoad(dataset.OgbnArxiv)
	m, err := model.New(model.Config{
		Kind: model.SAGE, InDim: d.Graph.FeatDim, Hidden: 4,
		OutDim: d.Graph.NumClasses, Layers: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evaluate(m, d.Graph, nil, 0, 1); err == nil {
		t.Error("Evaluate with empty index accepted")
	}
	bad, err := model.New(model.Config{Kind: model.SAGE, InDim: 4, Hidden: 4, OutDim: 2, Layers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evaluate(bad, d.Graph, d.ValIdx, 0, 1); err == nil {
		t.Error("Evaluate with mismatched model input width accepted")
	}
}

// TestParamsAtFullScaleMatchesBuiltModel pins the closed form to the
// model it describes: for every registered dataset, architecture and
// depth, numParams equals the parameter count of the model model.New
// builds, at the paper-scale input dimension and at the scaled graph's,
// whatever the GAT head count.
func TestParamsAtFullScaleMatchesBuiltModel(t *testing.T) {
	for _, name := range dataset.Names() {
		ds := dataset.MustLoad(name)
		for _, inDim := range []int{ds.FullFeatDim, ds.Graph.FeatDim} {
			for _, kind := range []model.Kind{model.GCN, model.SAGE, model.GAT} {
				for layers := 1; layers <= 3; layers++ {
					cfg := Config{Model: kind, Hidden: 32, Layers: layers}
					got := numParams(cfg, inDim, ds.Graph.NumClasses)
					for _, heads := range []int{1, 2, 4} {
						m, err := model.New(model.Config{
							Kind: kind, InDim: inDim, Hidden: cfg.Hidden,
							OutDim: ds.Graph.NumClasses, Layers: layers, Heads: heads, Seed: 1,
						})
						if err != nil {
							t.Fatal(err)
						}
						if want := nn.CountParams(m.Params()); got != want {
							t.Errorf("%s/in %d/%s/%d layers/%d heads: closed form %d, built model %d",
								name, inDim, kind, layers, heads, got, want)
						}
					}
				}
			}
		}
	}
}
